package repro.perf

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.LoCEC
import repro.exp.Experiments
import repro.ml.CommCNN
import repro.wechat.{RelationType, SocialGen}

/** A named input family and pipeline configuration. The workload seed is
  * the only input the benchmark varies; it reaches the program as
  * `SocialGen.Config.seed`. Why each workload exists is recorded in
  * perfbench/README.md. */
final case class Workload(name: String, variant: LoCEC.Variant, config: Long => SocialGen.Config) {
  /** `Experiments.ModelSizes` with 5 CommCNN epochs instead of 25, so that
    * one repetition of a CNN workload takes about 10 s. */
  def params: LoCEC.Params = {
    val sizes = Experiments.ModelSizes(cnn = CommCNN.Config(epochs = 5))
    LoCEC.Params(variant = variant, gbdt = sizes.gbdt, cnn = sizes.cnn, lr = sizes.lr,
      maxTrainCommunities = sizes.maxTrainCommunities)
  }
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // Table VI configuration: default circles, LoCEC-CNN, every edge
    // predicted. Driver-side CommCNN training dominates; GN is cheap.
    Workload("sparse-cnn", LoCEC.Cnn,
      seed => SocialGen.Config(numUsers = 1000, seed = seed)),
    // Dense circles: large egos, so the wedge join and per-ego GN (and their
    // skew) dominate Phase I. LoCEC-XGB never touches CommCNN. Circle sizes
    // are narrowed from the defaults: GN cost grows about as the fourth
    // power of ego size, so with 8..50-member workplaces a few large circles
    // decide the total and it varies ~30 % from seed to seed (~10 % here).
    Workload("dense-xgb", LoCEC.Xgb,
      seed => SocialGen.Config(numUsers = 600, seed = seed,
        workSizeMin = 30, workSizeMax = 40, pWorkEdge = 0.5,
        schoolSizeMin = 20, schoolSizeMax = 30, pSchoolEdge = 0.4,
        interestSizeMin = 10, interestSizeMax = 20, pInterestEdge = 0.4)),
    // Deployment shape: 2 % of users surveyed, every edge classified, so
    // CommCNN runs mostly forward-only and Phase II/III carry the run.
    Workload("fewlabels-cnn", LoCEC.Cnn,
      seed => SocialGen.Config(numUsers = 2000, seed = seed, surveyedFrac = 0.02)))

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** One repetition's materialized inputs plus the driver-side copies the
    * output checks need. */
  final case class Inputs(setup: Experiments.Setup, targets: Set[(Long, Long)],
                          test: Array[(Long, Long, String)])

  /** Generate and materialize one repetition's inputs. Mirrors
    * `Experiments.setup` (same 80/20 `xxhash64` split of the labeled
    * major-type edges) but takes a whole `SocialGen.Config`. */
  def setup(spark: SparkSession, cfg: SocialGen.Config): Experiments.Setup = {
    import spark.implicits._
    val net = SocialGen.generate(spark, cfg)
    val edges = net.edges.toDF().cache()
    val interactions = net.interactions.toDF().cache()
    val userFeatures: collection.Map[Long, Array[Double]] =
      net.users.collect().map(u => u.user -> SocialGen.userFeature(u)).toMap
    val withBucket = edges
      .where($"labeled" && $"label".isin(RelationType.Major: _*))
      .select("src", "dst", "label")
      .withColumn("bucket", pmod(xxhash64($"src", $"dst", lit(cfg.seed)), lit(10)))
    val trainEdges = withBucket.where($"bucket" < 8).drop("bucket").cache()
    val testEdges = withBucket.where($"bucket" >= 8).drop("bucket").cache()
    Seq(edges, interactions, trainEdges, testEdges).foreach(_.count())
    Experiments.Setup(net, edges, interactions, userFeatures, trainEdges, testEdges)
  }

  def driverCopies(spark: SparkSession, st: Experiments.Setup): Inputs = {
    import spark.implicits._
    Inputs(st,
      st.edges.select("src", "dst").as[(Long, Long)].collect().toSet,
      st.testEdges.select("src", "dst", "label").as[(Long, Long, String)].collect())
  }
}
