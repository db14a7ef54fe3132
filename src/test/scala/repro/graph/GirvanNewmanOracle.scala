package repro.graph

import scala.collection.mutable

/** Test oracle for `GirvanNewman`: the implementation before it moved to
  * CSR adjacency with edge-id arrays. Adjacency is `LinkedGraph`'s boxed
  * `LinkedHashSet`s and betweenness a `LinkedHashMap[(Int, Int), Double]`,
  * recomputed over the whole graph after every removal. On a `LinkedGraph`
  * built from the edges in `(min, max)` order, `GirvanNewman` on the
  * `LocalGraph` of the same edges must return the same partition, and the
  * same betweenness bit for bit.
  */
object GirvanNewmanOracle {

  /** Detect communities; returns a community id (0-based, dense) per node,
    * aligned with `g.nodeIds`. Isolated nodes become singleton communities.
    *
    * @param patienceFrac stop after `max(8, patienceFrac * m)` consecutive
    *                     edge removals without a modularity improvement.
    */
  def detect(g: LinkedGraph, patienceFrac: Double = 0.5): Array[Int] = {
    val n = g.numNodes
    if (n == 0) return Array.empty
    val m0 = g.numEdges
    if (m0 == 0) return Array.tabulate(n)(identity) // all singletons

    val origDegree = Array.tabulate(n)(g.degree)
    val origEdges = g.edgeList()
    val work = g.copy()

    var best = work.connectedComponents()
    var bestQ = modularity(origEdges, origDegree, m0, best)
    val patience = math.max(8, (patienceFrac * m0).toInt)
    var sinceBest = 0

    while (work.numEdges > 0 && sinceBest < patience) {
      val (a, b) = maxBetweennessEdge(work)
      work.removeEdge(a, b)
      val comp = work.connectedComponents()
      val q = modularity(origEdges, origDegree, m0, comp)
      if (q > bestQ + 1e-12) {
        bestQ = q
        best = comp
        sinceBest = 0
      } else {
        sinceBest += 1
      }
    }
    renumber(best)
  }

  /** Newman modularity Q = Σ_c [ e_c/m − (d_c/2m)² ] of a partition,
    * evaluated against the original edge set and degrees. */
  def modularity(origEdges: IndexedSeq[(Int, Int)], origDegree: Array[Int],
                 m: Int, comm: Array[Int]): Double = {
    if (m == 0) return 0.0
    val nComm = comm.max + 1
    val inside = new Array[Double](nComm)
    val degSum = new Array[Double](nComm)
    origEdges.foreach { case (a, b) => if (comm(a) == comm(b)) inside(comm(a)) += 1.0 }
    var i = 0
    while (i < comm.length) { degSum(comm(i)) += origDegree(i); i += 1 }
    var q = 0.0
    var c = 0
    while (c < nComm) {
      q += inside(c) / m - math.pow(degSum(c) / (2.0 * m), 2)
      c += 1
    }
    q
  }

  /** Edge betweenness of every current edge via Brandes' algorithm
    * (unweighted). Keys are (minIndex, maxIndex). */
  def edgeBetweenness(g: LinkedGraph): mutable.Map[(Int, Int), Double] = {
    val n = g.numNodes
    val bet = mutable.LinkedHashMap.empty[(Int, Int), Double]
    g.edgeList().foreach(e => bet(e) = 0.0)

    val dist = new Array[Int](n)
    val sigma = new Array[Double](n)
    val delta = new Array[Double](n)
    val preds = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    val order = new mutable.ArrayBuffer[Int](n)
    val queue = mutable.ArrayDeque.empty[Int]

    var s = 0
    while (s < n) {
      java.util.Arrays.fill(dist, -1)
      java.util.Arrays.fill(sigma, 0.0)
      java.util.Arrays.fill(delta, 0.0)
      var i = 0
      while (i < n) { preds(i).clear(); i += 1 }
      order.clear()

      dist(s) = 0; sigma(s) = 1.0
      queue.append(s)
      while (queue.nonEmpty) {
        val v = queue.removeHead()
        order += v
        g.neighbors(v).foreach { w =>
          if (dist(w) < 0) { dist(w) = dist(v) + 1; queue.append(w) }
          if (dist(w) == dist(v) + 1) { sigma(w) += sigma(v); preds(w) += v }
        }
      }
      // dependency accumulation, reverse BFS order
      var j = order.length - 1
      while (j >= 0) {
        val w = order(j)
        preds(w).foreach { v =>
          val c = sigma(v) / sigma(w) * (1.0 + delta(w))
          val key = if (v < w) (v, w) else (w, v)
          bet(key) += c
          delta(v) += c
        }
        j -= 1
      }
      s += 1
    }
    // each undirected pair counted from both endpoints
    bet.mapValuesInPlace((_, v) => v / 2.0)
    bet
  }

  /** The edge with the maximum betweenness; ties broken by smallest
    * (minIndex, maxIndex) pair for determinism. */
  private def maxBetweennessEdge(g: LinkedGraph): (Int, Int) = {
    val bet = edgeBetweenness(g)
    var bestEdge: (Int, Int) = null
    var bestVal = Double.NegativeInfinity
    bet.foreach { case (e, v) =>
      if (v > bestVal + 1e-12 ||
          (math.abs(v - bestVal) <= 1e-12 && (bestEdge == null ||
            e._1 < bestEdge._1 || (e._1 == bestEdge._1 && e._2 < bestEdge._2)))) {
        bestVal = v; bestEdge = e
      }
    }
    bestEdge
  }

  /** Renumber community ids to be dense, ordered by first occurrence. */
  private def renumber(comm: Array[Int]): Array[Int] = {
    val map = mutable.LinkedHashMap.empty[Int, Int]
    comm.map { c => map.getOrElseUpdate(c, map.size) }
  }
}
