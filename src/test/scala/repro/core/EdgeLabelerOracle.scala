package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** Test oracles for `EdgeLabeler`.
  *
  * `features` is the Eq. 4 join chain that `EdgeLabeler` used before Phase
  * III became one keyed cogroup. Each side of Eq. 4 is built with two
  * shuffled joins (`edges ⋈ assigns`, then `⋈ preds`) and the two sides are
  * joined on (src, dst).
  *
  * `sides` is the `assigns ⋈ preds` join on (ego, comm) that built the side
  * rows before Phase II classification carried each community's members. */
object EdgeLabelerOracle {

  /** One side row per assignment: its community's prediction joined on
    * (ego, comm). */
  def sides(spark: SparkSession, assigns: Dataset[EgoAssign],
            preds: Dataset[CommPred]): Dataset[EdgeLabeler.Side] = {
    import spark.implicits._
    assigns.toDF()
      .join(preds.toDF().select("ego", "comm", "probs"), Seq("ego", "comm"))
      .select(least($"ego", $"friend") as "lo", greatest($"ego", $"friend") as "hi",
        $"ego" === greatest($"ego", $"friend") as "isU", $"tightness", $"probs")
      .as[EdgeLabeler.Side]
  }

  /** Eq. 4 feature vectors for the given (src, dst) edges (canonical
    * src < dst). Edges whose endpoints lack an assignment (degree-0 side —
    * impossible for real edges) are dropped. */
  def features(spark: SparkSession, edges: DataFrame,
               assigns: Dataset[EgoAssign], preds: Dataset[CommPred]): DataFrame = {
    import spark.implicits._
    val a = assigns.toDF()
    val p = preds.toDF()

    // C_u = src's community inside dst's ego network
    val srcSide = edges.select("src", "dst")
      .join(a.select($"ego", $"friend", $"comm", $"tightness"),
            $"ego" === $"dst" && $"friend" === $"src")
      .select($"src", $"dst", $"ego" as "egoU", $"comm" as "commU", $"tightness" as "tu")
      .join(p.select($"ego" as "egoU", $"comm" as "commU", $"probs" as "pu"),
            Seq("egoU", "commU"))
      .select("src", "dst", "tu", "pu")

    // C_v = dst's community inside src's ego network
    val dstSide = edges.select("src", "dst")
      .join(a.select($"ego", $"friend", $"comm", $"tightness"),
            $"ego" === $"src" && $"friend" === $"dst")
      .select($"src", $"dst", $"ego" as "egoV", $"comm" as "commV", $"tightness" as "tv")
      .join(p.select($"ego" as "egoV", $"comm" as "commV", $"probs" as "pv"),
            Seq("egoV", "commV"))
      .select("src", "dst", "tv", "pv")

    srcSide.join(dstSide, Seq("src", "dst"))
      .select($"src", $"dst",
        concat(array($"tu", $"tv"), $"pu", $"pv") as "feats")
  }
}
