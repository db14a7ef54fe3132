package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** The community-label vote as a Spark join chain: explode `members`, join
  * the labeled edges, count votes per label, rank them with a window and
  * join the winners back to `commFeats`. Kept as the test oracle for
  * `CommunityFeatures.labels` and `labeledSamples`, which vote inside one
  * pass over `commFeats` against a broadcast map of the labeled edges. */
object CommunityFeaturesOracle {

  /** Ground-truth community labels: "the majority type of friends with
    * ground-truth relationship classes" (Sec. V-C) — i.e. the majority
    * label of the labeled *ego–member* edges; ties by label priority.
    * @param labeledEdges (src, dst, label), canonical src < dst. */
  def labels(spark: SparkSession, commFeats: Dataset[CommFeat],
             labeledEdges: DataFrame): DataFrame = {
    import spark.implicits._
    val exploded = commFeats.flatMap { cf =>
      cf.members.map { m =>
        val (s, d) = if (cf.ego < m) (cf.ego, m) else (m, cf.ego)
        (cf.ego, cf.comm, s, d)
      }
    }.toDF("ego", "comm", "src", "dst")

    val prioUdf = udf((t: String) => repro.wechat.RelationType.priority(t))
    exploded
      .join(labeledEdges.select("src", "dst", "label"), Seq("src", "dst"))
      .groupBy("ego", "comm", "label").agg(count(lit(1)) as "votes")
      .withColumn("rank", row_number().over(
        org.apache.spark.sql.expressions.Window
          .partitionBy("ego", "comm")
          .orderBy(col("votes").desc, prioUdf($"label").asc, $"label".asc)))
      .where($"rank" === 1)
      .select("ego", "comm", "label")
  }

  /** Up to `limit` (community, label) training samples: the communities
    * `labels` can label from `labeledEdges`, taken in (ego, comm) order so
    * the sub-sample is deterministic. */
  def labeledSamples(spark: SparkSession, commFeats: Dataset[CommFeat],
                     labeledEdges: DataFrame, limit: Int): Seq[(CommFeat, String)] = {
    import spark.implicits._
    val labeled = labels(spark, commFeats, labeledEdges).as[LabeledComm]
    commFeats
      .joinWith(labeled, commFeats("ego") === labeled("ego") && commFeats("comm") === labeled("comm"))
      .orderBy(col("_1.ego"), col("_1.comm"))
      .take(limit)
      .map { case (cf, lc) => (cf, lc.label) }
      .toSeq
  }
}
