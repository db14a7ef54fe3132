package repro.graph

/** Small immutable undirected graph of one ego network, in CSR form.
  *
  * Nodes carry external `Long` ids, sorted and distinct, and are addressed
  * by their dense `Int` index in `nodeIds`; ego networks have at most a few
  * hundred nodes (the ego's degree), so everything here is O(small).
  *
  * Edge `e` joins `lo(e) < hi(e)`, and edge ids follow `(lo, hi)` order.
  * Row `v` of the adjacency, `start(v) until start(v + 1)`, lists v's
  * neighbors `nbr` in ascending order, each with the id `eid` of the edge
  * to it. So the graph, and everything computed from it, depends only on
  * the node set and the edge set, not on the order they were given in.
  */
final class LocalGraph private (val nodeIds: Array[Long],
                                private[graph] val lo: Array[Int],
                                private[graph] val hi: Array[Int],
                                private[graph] val start: Array[Int],
                                private[graph] val nbr: Array[Int],
                                private[graph] val eid: Array[Int]) {

  def numNodes: Int = nodeIds.length
  def numEdges: Int = lo.length

  def degree(i: Int): Int = start(i + 1) - start(i)
  def neighbors(i: Int): Iterator[Int] = Iterator.range(start(i), start(i + 1)).map(nbr)
}

object LocalGraph {

  /** Build a graph over `nodes` with the given undirected edges (by id).
    * Self-loops, duplicate and reversed pairs, and edges whose endpoints
    * are not both in `nodes` are dropped — callers pass ego-network member
    * lists plus inner edges, and the inner-edge list can mention only
    * members. */
  def apply(nodes: Iterable[Long], edges: Iterable[(Long, Long)]): LocalGraph = {
    val ids = nodes.toArray.distinct.sorted
    val n = ids.length
    // edge (i, j), i < j, as the key i * n + j: sorting keys sorts pairs
    val keys = Array.newBuilder[Long]
    edges.foreach { case (u, v) =>
      val i = java.util.Arrays.binarySearch(ids, u)
      val j = java.util.Arrays.binarySearch(ids, v)
      if (i >= 0 && j >= 0 && i != j) keys += math.min(i, j).toLong * n + math.max(i, j)
    }
    val sorted = keys.result().sorted.distinct
    val m = sorted.length
    val lo = Array.tabulate(m)(e => (sorted(e) / n).toInt)
    val hi = Array.tabulate(m)(e => (sorted(e) % n).toInt)

    val start = new Array[Int](n + 1)
    for (e <- 0 until m) { start(lo(e) + 1) += 1; start(hi(e) + 1) += 1 }
    for (v <- 0 until n) start(v + 1) += start(v)
    // in edge order, row v gets its smaller neighbors (edges (u, v), u < v)
    // before its larger ones (edges (v, w)), each ascending
    val fill = start.clone()
    val nbr = new Array[Int](2 * m)
    val eid = new Array[Int](2 * m)
    for (e <- 0 until m) {
      nbr(fill(lo(e))) = hi(e); eid(fill(lo(e))) = e; fill(lo(e)) += 1
      nbr(fill(hi(e))) = lo(e); eid(fill(hi(e))) = e; fill(hi(e)) += 1
    }
    new LocalGraph(ids, lo, hi, start, nbr, eid)
  }
}
