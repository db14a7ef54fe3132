package repro.perf

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ml.Metrics
import repro.wechat.RelationType

/** Output checks on one repetition's edge predictions. */
final case class Checked(preds: Array[(Long, Long, String)], targets: Int, missing: Int,
                         duplicates: Int, extras: Int, badLabels: Int, f1: Double) {
  /** Wrong outputs; a target left without a prediction is a failure, not
    * a wrong output, and is counted in `missing`. */
  def problems: Seq[String] = Seq(
    if (duplicates > 0) Some(s"$duplicates target edges predicted more than once") else None,
    if (extras > 0) Some(s"$extras predictions for edges that are not targets") else None,
    if (badLabels > 0) Some(s"$badLabels predictions outside ${RelationType.Major.mkString("/")}") else None,
    if (!(f1 > Checks.F1Gate)) Some(f"edge F1 $f1%.4f is not above the Table IV gate ${Checks.F1Gate}") else None,
  ).flatten
}

object Checks {
  /** Table IV gate: LoCEC must classify test edges with overall F1 > 0.7. */
  val F1Gate = 0.7

  def apply(spark: SparkSession, edgePreds: DataFrame, in: Workloads.Inputs): Checked = {
    import spark.implicits._
    val preds = edgePreds.select("src", "dst", "pred").as[(Long, Long, String)].collect()
      .sortBy(p => (p._1, p._2))
    val keys = preds.map(p => (p._1, p._2))
    val distinct = keys.toSet
    val byEdge = preds.iterator.map(p => (p._1, p._2) -> p._3).toMap
    val truth = in.test.map(_._3).toSeq
    val guessed = in.test.map(t => byEdge.getOrElse((t._1, t._2), RelationType.Unknown)).toSeq
    Checked(preds,
      targets = in.targets.size,
      missing = in.targets.count(t => !distinct.contains(t)),
      duplicates = keys.length - distinct.size,
      extras = distinct.count(k => !in.targets.contains(k)),
      badLabels = preds.count(p => !RelationType.Major.contains(p._3)),
      f1 = Metrics.report(truth, guessed).last.f1)
  }
}
