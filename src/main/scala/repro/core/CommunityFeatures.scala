package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.wechat.RelationType
import scala.collection.mutable

/** The Phase II representation of one local community: the full member /
  * tightness lists (id-sorted, used for ground-truth labeling and Phase III)
  * plus the k × d feature matrix of Algorithm 1, flattened row-major.
  * `rows` = k, `cols` = |I| + |f|; the matrix holds the top min(|C|, k)
  * members by tightness, and the rest is zero padding. */
final case class CommFeat(ego: Long, comm: Int,
                          members: Array[Long], tightness: Array[Double],
                          flat: Array[Double], rows: Int, cols: Int) {
  def realRows: Int = math.min(members.length, rows)
}

/** A community with an observed (survey-derived) majority label. */
final case class LabeledComm(ego: Long, comm: Int, label: String)

/** Phase II feature aggregation (Sec. IV-B-1, Algorithm 1): Eq. 1–2
  * interaction features per member, rows ordered by Eq. 3 tightness. */
object CommunityFeatures {

  /** Eq. 1 for one member: interact(u, C, j) = Σ_{v∈C\u} I_uv^j / Σ_{C} I^j,
    * where the denominator is the total interaction volume on dimension j
    * among all pairs inside C (0 when the community is silent on j). */
  def interact(userSum: Array[Double], commTotal: Array[Double]): Array[Double] =
    Array.tabulate(userSum.length)(j => if (commTotal(j) == 0.0) 0.0 else userSum(j) / commTotal(j))

  /** Build the feature matrices for every community of one ego network.
    *
    * @param assigns    this ego's Phase I output
    * @param pairInter  interaction vectors of the ego's inner edges, keyed
    *                   (a, b) with a < b
    * @param userFeat   per-user individual features f_u (missing → zeros)
    * @param k          matrix rows (paper's parameter study picks 20)
    * @param interDims  |I|
    * @param featDims   |f|
    */
  def buildForEgo(ego: Long, assigns: Seq[EgoAssign],
                  pairInter: collection.Map[(Long, Long), Array[Double]],
                  userFeat: Long => Array[Double],
                  k: Int, interDims: Int, featDims: Int): Seq[CommFeat] = {
    val d = interDims + featDims
    assigns.groupBy(_.comm).toSeq.sortBy(_._1).map { case (comm, membersAssign) =>
      val sorted = membersAssign.sortBy(_.friend)
      val members = sorted.map(_.friend).toArray
      val tight = sorted.map(_.tightness).toArray
      val inComm = members.toSet

      val userSum = mutable.LinkedHashMap.empty[Long, Array[Double]]
      members.foreach(m => userSum(m) = new Array[Double](interDims))
      val commTotal = new Array[Double](interDims)
      pairInter.foreach { case ((a, b), inter) =>
        if (inComm(a) && inComm(b)) {
          var j = 0
          while (j < interDims) {
            userSum(a)(j) += inter(j)
            userSum(b)(j) += inter(j)
            commTotal(j) += inter(j)
            j += 1
          }
        }
      }

      // rows ordered by descending tightness (Algorithm 1's max-heap), ties
      // by member id for determinism; top k, zero-padded.
      val order = members.indices.sortBy(i => (-tight(i), members(i))).take(k)
      val flat = new Array[Double](k * d)
      order.zipWithIndex.foreach { case (mi, row) =>
        val u = members(mi)
        val feats = interact(userSum(u), commTotal) ++ userFeat(u)
        var j = 0
        while (j < d) { flat(row * d + j) = feats(j); j += 1 }
      }
      CommFeat(ego, comm, members, tight, flat, k, d)
    }
  }

  /** Distributed Phase II feature computation: join the inner edges with the
    * interaction table, cogroup with the Phase I assignments by ego, and
    * build every community's matrix in parallel. Fails on an interaction
    * vector of an inner edge whose width is not `interDims`, and on an
    * inner edge with more than one interaction row. */
  def compute(spark: SparkSession, assigns: Dataset[EgoAssign],
              innerEdges: DataFrame, interactions: DataFrame,
              userFeatures: collection.Map[Long, Array[Double]],
              k: Int, interDims: Int, featDims: Int): Dataset[CommFeat] = {
    import spark.implicits._
    val bcFeat = spark.sparkContext.broadcast(userFeatures)
    val innerInter = innerEdges
      .join(interactions.select($"src" as "a", $"dst" as "b", $"inter"), Seq("a", "b"), "left")
      .select($"ego", $"a", $"b", $"inter")
      .as[(Long, Long, Long, Seq[Double])]

    val zeros = new Array[Double](featDims)
    assigns.groupByKey(_.ego).cogroup(innerInter.groupByKey(_._1)) { (ego, as, is) =>
      val assignSeq = as.toSeq
      if (assignSeq.isEmpty) Iterator.empty
      else {
        val pairInter = mutable.LinkedHashMap.empty[(Long, Long), Array[Double]]
        is.foreach { case (_, a, b, inter) =>
          if (inter != null) {
            require(inter.length == interDims, s"interaction vector of pair ($a, $b) has width " +
              s"${inter.length}, expected interDims = $interDims")
            require(pairInter.put((a, b), inter.toArray).isEmpty,
              s"pair ($a, $b) has more than one interaction row")
          }
        }
        val lookup = (u: Long) => bcFeat.value.getOrElse(u, zeros)
        buildForEgo(ego, assignSeq, pairInter, lookup, k, interDims, featDims).iterator
      }
    }
  }

  /** Ground-truth community labels: "the majority type of friends with
    * ground-truth relationship classes" (Sec. V-C) — i.e. the majority
    * label of the labeled *ego–member* edges; ties by label priority, then
    * label order. Communities without a labeled ego–member edge get no row.
    * The labeled edges are collected once and broadcast; the vote is one
    * narrow pass over `commFeats`. The broadcast lives as long as the
    * returned frame is referenced.
    * @param labeledEdges (src, dst, label), canonical src < dst; a null
    *                     label fails with `IllegalArgumentException`. */
  def labels(spark: SparkSession, commFeats: Dataset[CommFeat],
             labeledEdges: DataFrame): DataFrame = {
    import spark.implicits._
    val bc = labelsByPair(spark, labeledEdges)
    commFeats.flatMap(cf => vote(cf, bc.value).map(l => (cf.ego, cf.comm, l)))
      .toDF("ego", "comm", "label")
  }

  /** Up to `limit` (community, label) training samples: the communities
    * `labels` can label from `labeledEdges`, taken in (ego, comm) order so
    * the sub-sample is deterministic. Spark plans the ordered take as a
    * top-`limit` per task with no shuffle. */
  def labeledSamples(spark: SparkSession, commFeats: Dataset[CommFeat],
                     labeledEdges: DataFrame, limit: Int): Seq[(CommFeat, String)] = {
    import spark.implicits._
    val bc = labelsByPair(spark, labeledEdges)
    try {
      commFeats.flatMap(cf => vote(cf, bc.value).map(l => (cf, l)))
        .orderBy($"_1.ego", $"_1.comm")
        .take(limit)
        .toSeq
    } finally bc.destroy()
  }

  /** Every label of every labeled pair, broadcast from one collect. A pair
    * listed twice keeps both labels, so it votes twice. */
  private def labelsByPair(spark: SparkSession, labeledEdges: DataFrame)
      : Broadcast[Map[(Long, Long), Array[String]]] = {
    import spark.implicits._
    val rows = labeledEdges.select("src", "dst", "label").as[(Long, Long, String)].collect()
    val nulls = rows.count(_._3 == null)
    require(nulls == 0, s"$nulls labeled edges have a null label")
    spark.sparkContext.broadcast(rows.groupMap(r => (r._1, r._2))(_._3))
  }

  /** The Sec. V-C vote of one community over its ego–member pairs: most
    * votes, then `RelationType.priority`, then label order; `None` when no
    * pair is labeled. */
  private def vote(cf: CommFeat, byPair: Map[(Long, Long), Array[String]]): Option[String] = {
    val votes = mutable.HashMap.empty[String, Int]
    cf.members.foreach { m =>
      byPair.get(if (cf.ego < m) (cf.ego, m) else (m, cf.ego))
        .foreach(_.foreach(l => votes(l) = votes.getOrElse(l, 0) + 1))
    }
    if (votes.isEmpty) None
    else Some(votes.minBy { case (l, n) => (-n, RelationType.priority(l), l) }._1)
  }
}
