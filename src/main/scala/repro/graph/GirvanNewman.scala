package repro.graph

/** Girvan–Newman community detection [Girvan & Newman, PNAS 2002], as used
  * by LoCEC Phase I to detect local communities inside each ego network.
  *
  * The classic algorithm repeatedly removes the edge with the highest
  * betweenness (Brandes accumulation over BFS shortest paths) and keeps the
  * partition (connected components) with the highest modularity, measured on
  * the *original* graph. Ego networks are small (median size 8 in the
  * paper), so the O(m²n) worst case is affordable; a patience-based early
  * stop bounds the tail for the largest ego networks.
  *
  * The removal loop runs on `LocalGraph`'s CSR arrays with a removed-edge
  * bitmap, so a betweenness pass allocates nothing and boxes nothing.
  */
object GirvanNewman {

  /** Detect communities; returns a community id (0-based, dense) per node,
    * aligned with `g.nodeIds`, numbered in order of the smallest node index
    * each community holds. Isolated nodes become singleton communities.
    *
    * @param patienceFrac stop after `max(8, patienceFrac * m)` consecutive
    *                     edge removals without a modularity improvement.
    */
  def detect(g: LocalGraph, patienceFrac: Double = 0.5): Array[Int] = {
    val n = g.numNodes
    if (n == 0) return Array.empty
    val m0 = g.numEdges
    if (m0 == 0) return Array.tabulate(n)(identity) // all singletons

    val work = new Work(g)
    val bet = new Array[Double](m0)

    var best = work.components()
    var bestQ = modularity(g, best)
    val patience = math.max(8, (patienceFrac * m0).toInt)
    var sinceBest = 0

    while (work.live > 0 && sinceBest < patience) {
      work.remove(work.maxBetweennessEdge(bet))
      val comp = work.components()
      val q = modularity(g, comp)
      if (q > bestQ + 1e-12) {
        bestQ = q
        best = comp
        sinceBest = 0
      } else {
        sinceBest += 1
      }
    }
    best
  }

  /** Newman modularity Q = Σ_c [ e_c/m − (d_c/2m)² ] of a partition of `g`. */
  def modularity(g: LocalGraph, comm: Array[Int]): Double = {
    val m = g.numEdges
    if (m == 0) return 0.0
    val nComm = comm.max + 1
    val inside = new Array[Double](nComm)
    val degSum = new Array[Double](nComm)
    var e = 0
    while (e < m) {
      val c = comm(g.lo(e))
      if (c == comm(g.hi(e))) inside(c) += 1.0
      e += 1
    }
    var i = 0
    while (i < comm.length) { degSum(comm(i)) += g.degree(i); i += 1 }
    var q = 0.0
    var c = 0
    while (c < nComm) {
      q += inside(c) / m - math.pow(degSum(c) / (2.0 * m), 2)
      c += 1
    }
    q
  }

  /** Edge betweenness of every edge of `g` via Brandes' algorithm
    * (unweighted), indexed by edge id. */
  private[graph] def edgeBetweenness(g: LocalGraph): Array[Double] = {
    val bet = new Array[Double](g.numEdges)
    new Work(g).betweenness(bet)
    bet
  }

  /** The state of one GN run over `g`: a removed-edge bitmap and Brandes
    * scratch allocated once. Every walk visits rows in ascending order. */
  private final class Work(g: LocalGraph) {
    private val n = g.numNodes
    private val m = g.numEdges
    private val start = g.start
    private val nbr = g.nbr
    private val eid = g.eid
    private val removed = new Array[Boolean](m)
    var live: Int = m

    // Brandes scratch; the predecessors of w fill slots start(w).. of
    // predNode/predEdge, as w has at most its degree of them
    private val dist = new Array[Int](n)
    private val sigma = new Array[Double](n)
    private val delta = new Array[Double](n)
    private val order = new Array[Int](n)
    private val predCount = new Array[Int](n)
    private val predNode = new Array[Int](2 * m)
    private val predEdge = new Array[Int](2 * m)

    def remove(e: Int): Unit = { removed(e) = true; live -= 1 }

    /** Betweenness of every edge into `bet`, indexed by edge id; removed
      * edges get 0. */
    def betweenness(bet: Array[Double]): Unit = {
      java.util.Arrays.fill(bet, 0.0)
      var s = 0
      while (s < n) {
        java.util.Arrays.fill(dist, -1)
        java.util.Arrays.fill(sigma, 0.0)
        java.util.Arrays.fill(delta, 0.0)
        java.util.Arrays.fill(predCount, 0)

        // BFS; `order` is both the queue and the visit order
        dist(s) = 0; sigma(s) = 1.0
        order(0) = s
        var head = 0
        var tail = 1
        while (head < tail) {
          val v = order(head)
          head += 1
          var k = start(v)
          while (k < start(v + 1)) {
            val e = eid(k)
            if (!removed(e)) {
              val w = nbr(k)
              if (dist(w) < 0) { dist(w) = dist(v) + 1; order(tail) = w; tail += 1 }
              if (dist(w) == dist(v) + 1) {
                sigma(w) += sigma(v)
                val p = start(w) + predCount(w)
                predNode(p) = v; predEdge(p) = e
                predCount(w) += 1
              }
            }
            k += 1
          }
        }
        // dependency accumulation, reverse BFS order
        var j = tail - 1
        while (j >= 0) {
          val w = order(j)
          var p = start(w)
          while (p < start(w) + predCount(w)) {
            val v = predNode(p)
            val c = sigma(v) / sigma(w) * (1.0 + delta(w))
            bet(predEdge(p)) += c
            delta(v) += c
            p += 1
          }
          j -= 1
        }
        s += 1
      }
      // each undirected pair counted from both endpoints
      var e = 0
      while (e < m) { bet(e) = bet(e) / 2.0; e += 1 }
    }

    /** The live edge with the maximum betweenness; within 1e-12 of it the
      * smallest edge id, i.e. the smallest (lo, hi) pair, wins. `bet` is
      * scratch of length m. */
    def maxBetweennessEdge(bet: Array[Double]): Int = {
      betweenness(bet)
      var best = -1
      var e = 0
      while (e < m) {
        if (!removed(e) && (best < 0 || bet(e) > bet(best) + 1e-12)) best = e
        e += 1
      }
      best
    }

    /** Connected components over the live edges; component ids are
      * numbered 0.. in order of the smallest node index they contain. */
    def components(): Array[Int] = {
      val comp = Array.fill(n)(-1)
      val stack = new Array[Int](n)
      var next = 0
      var i = 0
      while (i < n) {
        if (comp(i) < 0) {
          comp(i) = next
          stack(0) = i
          var top = 1
          while (top > 0) {
            top -= 1
            val u = stack(top)
            var k = start(u)
            while (k < start(u + 1)) {
              val v = nbr(k)
              if (!removed(eid(k)) && comp(v) < 0) { comp(v) = next; stack(top) = v; top += 1 }
              k += 1
            }
          }
          next += 1
        }
        i += 1
      }
      comp
    }
  }
}
