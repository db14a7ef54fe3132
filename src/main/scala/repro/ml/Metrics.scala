package repro.ml

/** Precision / recall / F1 for multi-class classification, per class and
  * support-weighted overall — the metric used throughout the paper's
  * Tables II, IV and V. */
object Metrics {

  /** Scores of one class (or the weighted overall row). */
  final case class Score(label: String, precision: Double, recall: Double,
                         f1: Double, support: Long) {
    /** `| Colleague | 0.804 | 0.778 | 0.791 |`-style row. */
    def row: String = f"$label%-16s precision=$precision%.3f recall=$recall%.3f f1=$f1%.3f (n=$support)"
  }

  private def f1(p: Double, r: Double): Double = if (p + r == 0) 0.0 else 2 * p * r / (p + r)

  /** Per-class scores over the label set present in `truth` (a prediction of
    * a label never seen in truth contributes to that class's precision
    * denominator only if the class exists in truth; unknown/abstain
    * predictions simply cost recall). */
  def perClass(truth: Seq[String], pred: Seq[String]): Seq[Score] = {
    require(truth.length == pred.length, s"length mismatch ${truth.length} vs ${pred.length}")
    val classes = truth.distinct.sorted
    classes.map { c =>
      val tp = truth.lazyZip(pred).count { case (t, p) => t == c && p == c }
      val fp = truth.lazyZip(pred).count { case (t, p) => t != c && p == c }
      val fn = truth.lazyZip(pred).count { case (t, p) => t == c && p != c }
      val prec = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
      val rec = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
      Score(c, prec, rec, f1(prec, rec), (tp + fn).toLong)
    }
  }

  /** Support-weighted average of the per-class scores (the paper's
    * "Overall" rows). */
  def overall(truth: Seq[String], pred: Seq[String]): Score = {
    val per = perClass(truth, pred)
    val n = per.map(_.support).sum.toDouble
    if (n == 0) return Score("overall", 0, 0, 0, 0)
    val p = per.map(s => s.precision * s.support).sum / n
    val r = per.map(s => s.recall * s.support).sum / n
    Score("overall", p, r, f1(p, r), n.toLong)
  }

  /** Per-class rows followed by the overall row. */
  def report(truth: Seq[String], pred: Seq[String]): Seq[Score] =
    perClass(truth, pred) :+ overall(truth, pred)
}
