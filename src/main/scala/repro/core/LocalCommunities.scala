package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.graph.{GirvanNewman, LocalGraph}

/** One friend's assignment inside one ego network: the local community id
  * and the tightness value of Eq. 3. */
final case class EgoAssign(ego: Long, friend: Long, comm: Int, tightness: Double)

/** Phase I: local community detection — Girvan–Newman inside every ego
  * network, run in parallel via a cogroup keyed by ego ("each node is
  * parsed separately", Sec. V-D). */
object LocalCommunities {

  /** Eq. 3: tightness(u, C) for |C| > 1; singleton communities get 1.0.
    *
    * @param friendInComm |friend(u, C)|   — u's neighbors inside C
    * @param degreeInEgo  |friend(u, G_v)| — u's neighbors in the ego network
    * @param commSize     |C|
    */
  def tightness(friendInComm: Int, degreeInEgo: Int, commSize: Int): Double =
    if (commSize == 1) 1.0
    else (friendInComm.toDouble / degreeInEgo) * (friendInComm.toDouble / (commSize - 1))

  /** Community assignments for one ego network given its friends and the
    * edges among them. Deterministic. */
  def detectOne(ego: Long, friends: Array[Long],
                innerEdges: Seq[(Long, Long)],
                patienceFrac: Double = 0.5): Seq[EgoAssign] = {
    val g = LocalGraph(friends, innerEdges)
    val comm = GirvanNewman.detect(g, patienceFrac)
    val sizes = new Array[Int](if (comm.isEmpty) 0 else comm.max + 1)
    comm.foreach(c => sizes(c) += 1)
    g.nodeIds.indices.map { i =>
      val c = comm(i)
      val inC = g.neighbors(i).count(j => comm(j) == c)
      EgoAssign(ego, g.nodeIds(i), c, tightness(inC, g.degree(i), sizes(c)))
    }
  }

  /** Distributed Phase I over `edges` alone: builds the inner edges itself. */
  def detect(spark: SparkSession, edges: DataFrame,
             patienceFrac: Double = 0.5): Dataset[EgoAssign] =
    detect(spark, edges, EgoNetworks.egoInnerEdges(spark, edges), patienceFrac)

  /** Distributed Phase I: cogroup the (ego, friend) membership pairs with
    * the (ego, a, b) inner edges and run GN per ego. Fails on a duplicate
    * edge, naming it.
    * @param inner `EgoNetworks.egoInnerEdges` of `edges` */
  def detect(spark: SparkSession, edges: DataFrame, inner: DataFrame,
             patienceFrac: Double): Dataset[EgoAssign] = {
    import spark.implicits._
    val members = EgoNetworks.egoMembers(spark, edges).as[(Long, Long)]
    members.groupByKey(_._1).cogroup(inner.as[(Long, Long, Long)].groupByKey(_._1)) { (ego, ms, es) =>
      val friends = ms.map(_._2).toArray
      val dups = friends.diff(friends.distinct)
      require(dups.isEmpty, s"duplicate edge (${math.min(ego, dups(0))}, ${math.max(ego, dups(0))}) in edges")
      val innerE = es.map(t => (t._2, t._3)).toSeq
      if (friends.isEmpty) Iterator.empty
      else detectOne(ego, friends, innerE, patienceFrac).iterator
    }
  }
}
