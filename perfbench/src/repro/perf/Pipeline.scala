package repro.perf

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.exp.Experiments

/** The LoCEC pipeline wired as `LoCEC.run` wires it, but through each
  * layer's public function with a span around every call. Each Spark-backed
  * call is materialized (persist + count) inside its span, so the span
  * times the layer's own work rather than a lazy plan. */
object Pipeline {

  /** What the post-span counts and checks read, plus the counts taken
    * inside the spans. */
  final case class Traced(inner: DataFrame, assigns: Dataset[EgoAssign],
                          commFeats: Dataset[CommFeat], samples: Seq[(CommFeat, String)],
                          model: CommModel, edgesIn: DataFrame, lrSamples: Int,
                          edgePreds: DataFrame, counts: Map[String, Double])

  private def materialize[T](d: Dataset[T]): (Dataset[T], Long) = {
    val p = d.persist(StorageLevel.MEMORY_AND_DISK)
    (p, p.count())
  }

  def run(spark: SparkSession, tr: Tracer, st: Experiments.Setup, p: LoCEC.Params): Traced = {
    import spark.implicits._
    tr.span("pipeline") {
      val ((inner, innerRows), (assigns, assignRows)) = tr.span("phase1") {
        val inner = tr.span("ego.inner", spark = true) {
          materialize(EgoNetworks.egoInnerEdges(spark, st.edges))
        }
        val assigns = tr.span("gn.detect", spark = true) {
          materialize(LocalCommunities.detect(spark, st.edges, p.gnPatienceFrac))
        }
        (inner, assigns)
      }

      val (commFeats, comms) = tr.span("phase2.features") {
        tr.span("feat.compute", spark = true) {
          materialize(CommunityFeatures.compute(spark, assigns, inner, st.interactions,
            st.userFeatures, p.k, p.interDims, p.featDims))
        }
      }

      val (labeledComms, samples, model) = tr.span("train") {
        val (labeled, nLabeled) = tr.span("feat.labels", spark = true) {
          materialize(CommunityFeatures.labels(spark, commFeats, st.trainEdges).as[LabeledComm])
        }
        val samples = tr.span("train.collect", spark = true) {
          commFeats
            .joinWith(labeled, commFeats("ego") === labeled("ego") &&
                               commFeats("comm") === labeled("comm"))
            .orderBy(col("_1.ego"), col("_1.comm"))
            .take(p.maxTrainCommunities)
            .map { case (cf, lc) => (cf, lc.label) }
            .toSeq
        }
        require(samples.nonEmpty, "no labeled communities")
        val model = tr.span("train.fit") {
          p.variant match {
            case LoCEC.Xgb => CommunityClassifier.trainXgb(samples, p.gbdt)
            case LoCEC.Cnn => CommunityClassifier.trainCnn(samples, p.cnn)
          }
        }
        (nLabeled, samples, model)
      }

      val (commPreds, _) = tr.span("phase2.classify") {
        tr.span("cls.classify", spark = true) {
          materialize(CommunityClassifier.classify(spark, commFeats, model))
        }
      }

      tr.span("phase3") {
        val target = st.edges.select("src", "dst")
        val edgesIn = target.union(st.trainEdges.select("src", "dst")).distinct()
        val (allFeats, rowsOut) = tr.span("e3.features", spark = true) {
          materialize(EdgeLabeler.features(spark, edgesIn, assigns, commPreds))
        }
        val trainFeats = tr.span("e3.lr_collect", spark = true) {
          allFeats.join(st.trainEdges.select("src", "dst", "label"), Seq("src", "dst"))
            .select("feats", "label").as[(Seq[Double], String)].collect()
            .map { case (f, l) => (f.toArray, l) }.toSeq
        }
        require(trainFeats.nonEmpty, "no labeled edges with Phase II features")
        val lr = tr.span("e3.lr_fit") { EdgeLabeler.train(trainFeats, p.lr) }
        val (preds, _) = tr.span("e3.predict", spark = true) {
          materialize(EdgeLabeler.predict(spark, allFeats.join(target, Seq("src", "dst")), lr))
        }
        Traced(inner, assigns, commFeats, samples, model, edgesIn, trainFeats.length, preds,
          Map("ego.inner_rows" -> innerRows.toDouble, "gn.assign_rows" -> assignRows.toDouble,
            "feat.communities" -> comms.toDouble, "feat.labeled_comms" -> labeledComms.toDouble,
            "e3.rows_out" -> rowsOut.toDouble))
      }
    }
  }
}
