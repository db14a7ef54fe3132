package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.{Exchange, ShuffleExchangeExec}
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.functions.lit
import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.{CommCNN, GBDT, LogisticRegression}

class EdgeLabelerSpec extends SparkSpec {
  import spark.implicits._

  // edge (1,2): in 2's ego net, node 1 is in comm 0 (tightness .8);
  //             in 1's ego net, node 2 is in comm 1 (tightness .6)
  private def assigns = spark.createDataset(Seq(
    EgoAssign(ego = 2L, friend = 1L, comm = 0, tightness = 0.8),
    EgoAssign(ego = 1L, friend = 2L, comm = 1, tightness = 0.6)))

  private def preds = spark.createDataset(Seq(
    CommPred(ego = 2L, comm = 0, members = Array(1L), tightness = Array(0.8),
      probs = Array(0.7, 0.2, 0.1), pred = "colleague"),
    CommPred(ego = 1L, comm = 1, members = Array(2L), tightness = Array(0.6),
      probs = Array(0.1, 0.8, 0.1), pred = "family")))

  // a real network: its divide, and the classify output of each variant
  private lazy val st = Experiments.setup(spark, numUsers = 300, seed = 7)
  private lazy val pre = LoCEC.divide(spark, st.edges, st.interactions, st.userFeatures, LoCEC.Params())
  private lazy val commPreds: Map[LoCEC.Variant, Dataset[CommPred]] = {
    val small = LoCEC.Params(gbdt = GBDT.Params(numRounds = 5),
      cnn = CommCNN.Config(filters = 2, hidden = 8, epochs = 2),
      lr = LogisticRegression.Params(epochs = 100))
    Seq(LoCEC.Xgb, LoCEC.Cnn).map { v =>
      v -> LoCEC.label(spark, pre, st.trainEdges, st.testEdges.select("src", "dst"),
        small.copy(variant = v)).commPreds
    }.toMap
  }

  private def bits(a: Seq[Double]): Seq[Long] = a.map(java.lang.Double.doubleToRawLongBits)

  private def edge = Seq((1L, 2L)).toDF("src", "dst")

  test("Eq. 4 feature layout: [t_u, t_v, r^{C_u}, r^{C_v}]") {
    val f = EdgeLabeler.features(spark, edge, assigns, preds)
      .select("feats").as[Seq[Double]].head()
    assert(f == Seq(0.8, 0.6, 0.7, 0.2, 0.1, 0.1, 0.8, 0.1))
  }

  test("feature vector length is 2 + 2*|L|") {
    val f = EdgeLabeler.features(spark, edge, assigns, preds)
      .select("feats").as[Seq[Double]].head()
    assert(f.length == 2 + 2 * 3)
  }

  test("edges without assignments on one side are dropped") {
    val edges = Seq((1L, 2L), (5L, 6L)).toDF("src", "dst")
    val feats = EdgeLabeler.features(spark, edges, assigns, preds)
    assert(feats.count() == 1)
  }

  test("features join the correct ego direction") {
    // Reverse case: edge (2,3) has no (ego=3, friend=2) assignment → dropped
    val edges = Seq((2L, 3L)).toDF("src", "dst")
    assert(EdgeLabeler.features(spark, edges, assigns, preds).count() == 0)
  }

  test("train + predict recovers a linearly separable rule") {
    // two classes determined by whether the first community prob leans to
    // colleague or family; mimic many edges
    val rng = new scala.util.Random(3)
    val rows = (0 until 200).map { i =>
      val colleague = i % 2 == 0
      val pu = if (colleague) Array(0.8 + rng.nextGaussian() * 0.05, 0.1, 0.1)
               else Array(0.1, 0.8 + rng.nextGaussian() * 0.05, 0.1)
      val feats = Array(0.5, 0.5) ++ pu ++ pu
      (feats, if (colleague) "colleague" else "family")
    }
    val model = EdgeLabeler.train(rows)
    val acc = rows.count { case (f, l) => model.predictLabel(f) == l }.toDouble / rows.size
    assert(acc > 0.95)
  }

  test("predict applies the model distributed over the feature frame") {
    val rows = (0 until 100).map { i =>
      val colleague = i % 2 == 0
      val pu = if (colleague) Array(0.9, 0.05, 0.05) else Array(0.05, 0.9, 0.05)
      (Array(0.5, 0.5) ++ pu ++ pu, if (colleague) "colleague" else "family")
    }
    val model = EdgeLabeler.train(rows)
    val featsDf = Seq(
      (1L, 2L, Seq(0.5, 0.5, 0.9, 0.05, 0.05, 0.9, 0.05, 0.05)),
      (3L, 4L, Seq(0.5, 0.5, 0.05, 0.9, 0.05, 0.05, 0.9, 0.05)))
      .toDF("src", "dst", "feats")
    val out = EdgeLabeler.predict(spark, featsDf, model)
      .as[(Long, Long, String)].collect().sortBy(_._1)
    assert(out(0)._3 == "colleague")
    assert(out(1)._3 == "family")
  }

  test("a reversed (dst, src) request swaps the two sides of Eq. 4") {
    // (2, 1) must give [t_v, t_u, r^{C_v}, r^{C_u}] of (1, 2)
    def feats(src: Long, dst: Long) = EdgeLabeler.features(spark, Seq((src, dst)).toDF("src", "dst"),
      assigns, preds).as[(Long, Long, Seq[Double])].collect().toSeq
    val Seq((1L, 2L, f12)) = feats(1L, 2L)
    val Seq((2L, 1L, f21)) = feats(2L, 1L)
    assert(f21 == Seq(f12(1), f12(0)) ++ f12.slice(5, 8) ++ f12.slice(2, 5))
    assert(f21 == Seq(0.6, 0.8, 0.1, 0.8, 0.1, 0.7, 0.2, 0.1))
  }

  test("features equals the join-chain oracle bitwise on every request shape") {
    val edges = st.edges.select("src", "dst")
    val train = st.trainEdges.select("src", "dst")
    val test = st.testEdges.select("src", "dst")
    val notInGraph = edges.select($"src", $"dst" + 1 as "dst").except(edges)
      .union(edges.select($"src", $"dst" + 100000 as "dst"))
    val selfPairs = edges.select($"src", $"src" as "dst")
    val reversed = edges.select($"dst" as "src", $"src" as "dst")
    val requestSets = Seq(
      "all edges" -> edges,
      "train ∪ test, some in both" -> train.union(test).union(test.where($"src" % 2 === 0)),
      "duplicated rows" -> edges.union(edges.where($"dst" % 3 === 0)).union(edges),
      "pairs not in the graph" -> edges.union(notInGraph),
      "self-pairs" -> edges.union(selfPairs),
      "reversed" -> reversed.union(edges.where($"src" % 2 === 0)))
    def rows(df: DataFrame): Map[(Long, Long, Seq[Long]), Int] =
      df.select("src", "dst", "feats").as[(Long, Long, Seq[Double])].collect().toSeq
        .groupBy { case (s, d, f) => (s, d, bits(f)) }
        .map { case (k, v) => k -> v.length }

    Seq(LoCEC.Xgb, LoCEC.Cnn).foreach { v =>
      val cp = commPreds(v)
      requestSets.foreach { case (name, requests) =>
        val got = rows(EdgeLabeler.features(spark, requests, pre.assigns, cp))
        // one row per request; the oracle's final (src, dst) join would give
        // d² rows for a pair requested d times, so it runs on distinct pairs
        val times = requests.groupBy("src", "dst").count().as[(Long, Long, Long)].collect()
          .map { case (s, d, n) => (s, d) -> n.toInt }.toMap
        val want = rows(EdgeLabelerOracle.features(spark, requests.distinct(), pre.assigns, cp))
          .map { case (k @ (s, d, _), n) => k -> n * times((s, d)) }
        assert(want.nonEmpty, (v, name))
        assert(got == want, (v, name))
        // as `label` asks: every request both as a target and as a labeled edge
        val keyed = EdgeLabeler.keyed(spark,
          EdgeLabeler.requests(spark, requests, requests.withColumn("label", lit("family"))), cp)
        assert(rows(keyed.where($"isTarget").toDF()) == want, (v, name, "target"))
        assert(rows(keyed.where(!$"isTarget" && $"label" === "family").toDF()) == want, (v, name, "labeled"))
      }
      assert(rows(EdgeLabeler.features(spark, edges, pre.assigns, cp)).values.sum == edges.count(), v)
      Seq(notInGraph, selfPairs).foreach { dropped =>
        assert(EdgeLabeler.features(spark, dropped, pre.assigns, cp).isEmpty, v)
      }
    }
  }

  test("side rows from the classify output equal the assigns ⋈ commPreds side rows bitwise") {
    def rows(ds: Dataset[EdgeLabeler.Side]): Map[(Long, Long, Boolean, Long, Seq[Long]), Int] =
      ds.collect().toSeq
        .groupBy(s => (s.lo, s.hi, s.isU, java.lang.Double.doubleToRawLongBits(s.tightness), bits(s.probs.toSeq)))
        .map { case (k, v) => k -> v.length }
    // each assignment is the side (min, max, ego == max) of its own edge
    val assignKeys = pre.assigns.collect().toSeq
      .map(a => (math.min(a.ego, a.friend), math.max(a.ego, a.friend), a.ego > a.friend))
    assert(assignKeys.nonEmpty && assignKeys.distinct.size == assignKeys.size)

    Seq(LoCEC.Xgb, LoCEC.Cnn).foreach { v =>
      val got = rows(EdgeLabeler.sides(spark, commPreds(v)))
      val want = rows(EdgeLabelerOracle.sides(spark, pre.assigns, commPreds(v)))
      assert(got == want, v)
      assert(got.size == assignKeys.size && got.values.forall(_ == 1), v)
      assert(got.keys.map(k => (k._1, k._2, k._3)).toSet == assignKeys.toSet, v)
    }
  }

  test("Phase III's plan holds the cogroup's two exchanges and no join") {
    object Plan extends AdaptiveSparkPlanHelper
    val requests = EdgeLabeler.requests(spark, st.testEdges.select("src", "dst"), st.trainEdges)
    Seq(LoCEC.Xgb, LoCEC.Cnn).foreach { v =>
      val plan = EdgeLabeler.keyed(spark, requests, commPreds(v)).queryExecution.executedPlan
      val joins = Plan.collect(plan) { case j: BaseJoinExec => j.nodeName }
      assert(joins.isEmpty, plan)
      val exchanges = Plan.collect(plan) { case e: Exchange => e }
      assert(exchanges.size == 2 && exchanges.forall(_.isInstanceOf[ShuffleExchangeExec]), plan)
    }
  }

  test("train throws on empty input") {
    intercept[IllegalArgumentException] {
      EdgeLabeler.train(Seq.empty)
    }
  }

  test("LR over Eq. 4 features separates agreeing communities cleanly") {
    // if both communities agree on a type, LR should predict that type
    val rows = Seq("colleague", "family", "schoolmate").zipWithIndex.flatMap {
      case (cls, idx) =>
        (0 until 40).map { _ =>
          val p = Array(0.05, 0.05, 0.05)
          p(idx) = 0.9
          (Array(0.7, 0.7) ++ p ++ p, cls)
        }
    }
    val model = EdgeLabeler.train(rows,
      LogisticRegression.Params(epochs = 400))
    Seq(0, 1, 2).foreach { idx =>
      val p = Array(0.05, 0.05, 0.05); p(idx) = 0.9
      val pred = model.predictLabel(Array(0.7, 0.7) ++ p ++ p)
      assert(pred == Seq("colleague", "family", "schoolmate")(idx))
    }
  }
}
