package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.ml.LogisticRegression

/** Phase III (Sec. IV-C): combine the two local-community classification
  * results of an edge's endpoints into its final relationship type with a
  * multinomial logistic regression over the Eq. 4 feature vector
  *
  *   f_<u,v> = [tightness(u, C_u), tightness(v, C_v), r^{C_u}, r^{C_v}]
  *
  * where C_u is u's local community in v's ego network and vice versa.
  *
  * Every community member is one side of exactly one edge, so Phase III is
  * one pass keyed by the canonical pair (min, max): each classified
  * community (which carries its members and their tightness) becomes one
  * side row per member in a narrow pass, and one cogroup meets the side
  * rows with the edges asked for.
  */
object EdgeLabeler {

  /** An edge to featurize: `label` is its observed type (null when none)
    * and `isTarget` marks an edge to predict. */
  final case class Request(src: Long, dst: Long, label: String, isTarget: Boolean)

  /** One side of Eq. 4 for the pair (lo, hi): the tightness and class
    * probabilities of one endpoint's community in the other's ego network.
    * `isU` when that ego network is hi's, i.e. the side is C_lo. */
  final case class Side(lo: Long, hi: Long, isU: Boolean, tightness: Double, probs: Array[Double])

  /** A request with its Eq. 4 vector. */
  final case class EdgeFeat(src: Long, dst: Long, feats: Array[Double], label: String,
                            isTarget: Boolean)

  /** The requests of one `LoCEC.label` call: every `target` (src, dst) edge
    * to predict and every `labeled` (src, dst, label) edge to train on. An
    * edge in both is requested twice, once per role. */
  def requests(spark: SparkSession, target: DataFrame, labeled: DataFrame): Dataset[Request] = {
    import spark.implicits._
    targets(spark, target)
      .union(labeled.select($"src", $"dst", $"label", lit(false) as "isTarget"))
      .as[Request]
  }

  private def targets(spark: SparkSession, edges: DataFrame): DataFrame = {
    import spark.implicits._
    edges.select($"src", $"dst", lit(null).cast("string") as "label", lit(true) as "isTarget")
  }

  /** Eq. 4 vectors for `requests`, one row per request whose edge has both
    * sides; the rest (pairs that are no edge, self-pairs) are dropped. A
    * request may name its edge in either order: (dst, src) gives
    * [t_v, t_u, r^{C_v}, r^{C_u}] of (src, dst). */
  def keyed(spark: SparkSession, requests: Dataset[Request],
            preds: Dataset[CommPred]): Dataset[EdgeFeat] = {
    import spark.implicits._
    sides(spark, preds).groupByKey(s => (s.lo, s.hi))
      .cogroup(requests.groupByKey(r => (math.min(r.src, r.dst), math.max(r.src, r.dst)))) {
        (_, ss, rs) =>
          val (us, vs) = ss.toArray.partition(_.isU)
          rs.flatMap { r =>
            // C_src lies in dst's ego network: the U side when src is the smaller id
            val (cSrc, cDst) = if (r.src < r.dst) (us, vs) else (vs, us)
            for (a <- cSrc.iterator; b <- cDst.iterator)
              yield EdgeFeat(r.src, r.dst, Array(a.tightness, b.tightness) ++ a.probs ++ b.probs,
                r.label, r.isTarget)
          }
      }
  }

  /** The Eq. 4 side rows of the classified communities: one per member m
    * of ego e's community C, `Side(min(e, m), max(e, m), e == max,
    * tightness(m, C), r^C)`, from a narrow pass over `preds`. */
  private[core] def sides(spark: SparkSession, preds: Dataset[CommPred]): Dataset[Side] = {
    import spark.implicits._
    preds.flatMap { p =>
      p.members.indices.iterator.map { i =>
        val m = p.members(i)
        val hi = math.max(p.ego, m)
        Side(math.min(p.ego, m), hi, p.ego == hi, p.tightness(i), p.probs)
      }
    }
  }

  /** Eq. 4 feature vectors (src, dst, feats) for the given (src, dst)
    * edges: `keyed` with every edge requested as a target. Edges without
    * both sides are dropped. `assigns` is not read: the side rows come
    * from `preds`, which carries each community's members and tightness.
    * The parameter stays only for existing callers; ROADMAP item 2 deletes
    * this function. */
  def features(spark: SparkSession, edges: DataFrame,
               assigns: Dataset[EgoAssign], preds: Dataset[CommPred]): DataFrame = {
    import spark.implicits._
    keyed(spark, targets(spark, edges).as[Request], preds).select("src", "dst", "feats")
  }

  /** Train the Phase III LR on labeled edges.
    * @param labeledFeats (feats, label) — collected to the driver;
    *        the labeled set is small (0.02 % of edges in the paper). */
  def train(labeledFeats: Seq[(Array[Double], String)],
            params: LogisticRegression.Params = LogisticRegression.Params()): LogisticRegression.Model =
    LogisticRegression.train(labeledFeats.map(_._1).toArray,
                             labeledFeats.map(_._2).toArray, params)

  /** Distributed prediction over the Eq. 4 features. */
  def predict(spark: SparkSession, feats: DataFrame,
              model: LogisticRegression.Model): DataFrame = {
    import spark.implicits._
    val predictUdf = udf((f: Seq[Double]) => model.predictLabel(f.toArray))
    feats.select($"src", $"dst", predictUdf($"feats") as "pred")
  }
}
