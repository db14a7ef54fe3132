package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.ml.{CommCNN, GBDT, LogisticRegression}
import repro.wechat.RelationType

/** End-to-end LoCEC (Algorithm 2): division → aggregation → combination,
  * with per-phase wall-clock timings for the Table VI reproduction. */
object LoCEC {

  /** Which community classifier Phase II uses. */
  sealed trait Variant
  case object Xgb extends Variant // LoCEC-XGB
  case object Cnn extends Variant // LoCEC-CNN

  final case class Params(
      variant: Variant = Cnn,
      k: Int = 20, // paper's parameter study (Fig. 10) picks k = 20
      interDims: Int = 7,
      featDims: Int = 2,
      gnPatienceFrac: Double = 0.5,
      gbdt: GBDT.Params = GBDT.Params(),
      cnn: CommCNN.Config = CommCNN.Config(),
      lr: LogisticRegression.Params = LogisticRegression.Params(),
      maxTrainCommunities: Int = 50000)

  /** Phase timings in seconds (paper's Table VI reports hours). */
  final case class Timings(trainingSec: Double, phase1Sec: Double,
                           phase2Sec: Double, phase3Sec: Double) {
    def totalSec: Double = trainingSec + phase1Sec + phase2Sec + phase3Sec
  }

  final case class Result(assigns: Dataset[EgoAssign], commFeats: Dataset[CommFeat],
                          commPreds: Dataset[CommPred], edgePreds: DataFrame, timings: Timings)

  /** Phase I and the Phase II feature matrices, with their wall-clock
    * seconds. Both are variant-independent, so one `Precomputed` serves
    * every `label` call on the same network. */
  final case class Precomputed(assigns: Dataset[EgoAssign], commFeats: Dataset[CommFeat],
                               phase1Sec: Double, featuresSec: Double)

  private def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Training labels must be the major types LoCEC classifies; a null
    * label is named as `null`. */
  private[core] def requireMajor(what: String, labels: Seq[String]): Unit = {
    val bad = labels.filterNot(RelationType.Major.contains)
    require(bad.isEmpty, s"${bad.size} $what have labels outside RelationType.Major " +
      s"(${RelationType.Major.mkString(", ")}): ${bad.map(String.valueOf).distinct.sorted.mkString(", ")}")
  }

  /** Run the full pipeline: `label(divide(...))`.
    *
    * @param edges        canonical (src, dst) edge list (src < dst)
    * @param interactions (src, dst, inter: array<double>) — sparse; missing
    *                     pairs mean zero interactions
    * @param userFeatures per-user individual feature vectors f_u
    * @param trainEdges   (src, dst, label) — the observed (survey) labels
    *                     available for training; major types only
    * @param predictEdges (src, dst) edges to label; defaults to all edges
    */
  def run(spark: SparkSession, edges: DataFrame, interactions: DataFrame,
          userFeatures: collection.Map[Long, Array[Double]],
          trainEdges: DataFrame, params: Params = Params(),
          predictEdges: Option[DataFrame] = None): Result =
    label(spark, divide(spark, edges, interactions, userFeatures, params), trainEdges,
      predictEdges.getOrElse(edges.select("src", "dst")), params)

  /** Phase I (ego networks + GN) and the Phase II feature matrices (Eq. 1–3),
    * both persisted and materialized. The inner edges are listed once, feed
    * both GN and the features, and are released afterwards, so a later
    * `divide` over the same edges lists them again rather than reading a
    * cached copy. Uses `k`, `interDims`, `featDims` and `gnPatienceFrac` of
    * `params`. A user-feature vector whose width is not `featDims` fails
    * with `IllegalArgumentException` before any Spark job runs. */
  def divide(spark: SparkSession, edges: DataFrame, interactions: DataFrame,
             userFeatures: collection.Map[Long, Array[Double]],
             params: Params): Precomputed = {
    for ((u, f) <- userFeatures) require(f.length == params.featDims,
      s"user $u has a feature vector of width ${f.length}, expected featDims = ${params.featDims}")
    val ((inner, assigns), phase1Sec) = timed {
      val inner = EgoNetworks.egoInnerEdges(spark, edges).persist(StorageLevel.MEMORY_AND_DISK)
      val assigns = LocalCommunities.detect(spark, edges, inner, params.gnPatienceFrac)
        .persist(StorageLevel.MEMORY_AND_DISK)
      assigns.count()
      (inner, assigns)
    }
    val (commFeats, featuresSec) = timed {
      val cf = CommunityFeatures.compute(spark, assigns, inner, interactions,
        userFeatures, params.k, params.interDims, params.featDims)
        .persist(StorageLevel.MEMORY_AND_DISK)
      cf.count()
      cf
    }
    inner.unpersist()
    Precomputed(assigns, commFeats, phase1Sec, featuresSec)
  }

  /** Training, Phase II classification and Phase III on a `divide` output.
    * Uses the model fields of `params` (`variant`, `gbdt`, `cnn`, `lr`,
    * `maxTrainCommunities`). Phase II classification carries each
    * community's members and tightness, so Phase III is one
    * `EdgeLabeler.keyed` pass over `commPreds` and the target and training
    * edges, with no join against `assigns`; its training rows are sorted by
    * (src, dst, label), so the LR fit does not depend on Spark's
    * partitioning, and its intermediate is released once `edgePreds` is
    * materialized.
    *
    * @param trainEdges (src, dst, label) observed labels; a null label or
    *                   a label outside `RelationType.Major` fails with
    *                   `IllegalArgumentException`
    * @param target     (src, dst) edges to label
    */
  def label(spark: SparkSession, pre: Precomputed, trainEdges: DataFrame,
            target: DataFrame, params: Params): Result = {
    import spark.implicits._
    val Precomputed(assigns, commFeats, phase1Sec, featuresSec) = pre

    // ---- model training (the paper trains CommCNN beforehand) ----------
    val (commModel, trainingSec) = timed {
      val samples = CommunityFeatures.labeledSamples(spark, commFeats, trainEdges,
        params.maxTrainCommunities)
      require(samples.nonEmpty, "no labeled communities — check trainEdges")
      requireMajor("labeled communities", samples.map(_._2))
      params.variant match {
        case Xgb => CommunityClassifier.trainXgb(samples, params.gbdt)
        case Cnn => CommunityClassifier.trainCnn(samples, params.cnn)
      }
    }

    // ---- Phase II (classification) -------------------------------------
    val (commPreds, classifySec) = timed {
      val cp = CommunityClassifier.classify(spark, commFeats, commModel)
        .persist(StorageLevel.MEMORY_AND_DISK)
      cp.count()
      cp
    }

    // ---- Phase III: combination — Eq. 4 features + LR ------------------
    val (edgePreds, phase3Sec) = timed {
      val feats = EdgeLabeler.keyed(spark, EdgeLabeler.requests(spark, target, trainEdges),
        commPreds).persist(StorageLevel.MEMORY_AND_DISK)
      val trainFeats = feats.where($"label".isNotNull).collect()
        .sortBy(e => (e.src, e.dst, e.label))
        .map(e => (e.feats, e.label))
        .toSeq
      require(trainFeats.nonEmpty, "no labeled edges with Phase II features")
      requireMajor("labeled edges", trainFeats.map(_._2))
      val lrModel = EdgeLabeler.train(trainFeats, params.lr)
      val preds = EdgeLabeler.predict(spark, feats.where($"isTarget").toDF(), lrModel)
        .persist(StorageLevel.MEMORY_AND_DISK)
      preds.count()
      feats.unpersist()
      preds
    }

    Result(assigns, commFeats, commPreds, edgePreds,
      Timings(trainingSec, phase1Sec, featuresSec + classifySec, phase3Sec))
  }
}
