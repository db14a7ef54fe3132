package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.LocalCommunities
import scala.util.Random

class GirvanNewmanSpec extends AnyFunSuite {

  /** Two k-cliques joined by a single bridge edge. */
  private def twoCliques(k: Int): LocalGraph = {
    val nodes = (0 until 2 * k).map(_.toLong)
    val edges =
      (for { i <- 0 until k; j <- i + 1 until k } yield (i.toLong, j.toLong)) ++
      (for { i <- k until 2 * k; j <- i + 1 until 2 * k } yield (i.toLong, j.toLong)) ++
      Seq((0L, k.toLong))
    LocalGraph(nodes, edges)
  }

  private def groups(comm: Array[Int]): Set[Set[Int]] =
    comm.zipWithIndex.groupBy(_._1).values.map(_.map(_._2).toSet).toSet

  /** Betweenness keyed by (lo, hi) index pair. */
  private def betweenness(g: LocalGraph): Map[(Int, Int), Double] =
    GirvanNewman.edgeBetweenness(g).zipWithIndex.map { case (b, e) => (g.lo(e), g.hi(e)) -> b }.toMap

  test("empty graph yields empty assignment") {
    assert(GirvanNewman.detect(LocalGraph(Nil, Nil)).isEmpty)
  }

  test("single node is one singleton community") {
    assert(GirvanNewman.detect(LocalGraph(Seq(7L), Nil)).toSeq == Seq(0))
  }

  test("edgeless graph: every node its own community") {
    val comm = GirvanNewman.detect(LocalGraph(Seq(1L, 2L, 3L), Nil))
    assert(comm.toSet.size == 3)
  }

  test("two cliques with a bridge split into two communities") {
    val comm = GirvanNewman.detect(twoCliques(4))
    assert(groups(comm) == Set((0 until 4).toSet, (4 until 8).toSet))
  }

  test("two larger cliques split correctly") {
    val comm = GirvanNewman.detect(twoCliques(6))
    assert(groups(comm) == Set((0 until 6).toSet, (6 until 12).toSet))
  }

  test("disconnected components are separate communities") {
    val g = LocalGraph(Seq(1L, 2L, 3L, 4L, 5L, 6L),
      Seq((1L, 2L), (2L, 3L), (1L, 3L), (4L, 5L), (5L, 6L), (4L, 6L)))
    val comm = GirvanNewman.detect(g)
    assert(groups(comm) == Set(Set(0, 1, 2), Set(3, 4, 5)))
  }

  test("paper Fig. 7(c): U1's ego network splits into C1={U2,U3,U4} and C2={U5,U6}") {
    // Ego network of U1 (ego excluded): friends U2..U6; triangle U2-U3-U4,
    // edge U5-U6, bridge U4-U6 — the worked example of Sec. IV-A/IV-B.
    val g = LocalGraph(Seq(2L, 3L, 4L, 5L, 6L),
      Seq((2L, 3L), (2L, 4L), (3L, 4L), (5L, 6L), (4L, 6L)))
    val comm = GirvanNewman.detect(g)
    val byId = g.nodeIds.zip(comm).toMap
    assert(byId(2L) == byId(3L) && byId(3L) == byId(4L))
    assert(byId(5L) == byId(6L))
    assert(byId(2L) != byId(5L))
  }

  test("community ids are dense starting at 0") {
    val comm = GirvanNewman.detect(twoCliques(3))
    assert(comm.min == 0)
    assert(comm.toSet == (0 to comm.max).toSet)
  }

  test("detection is deterministic") {
    val a = GirvanNewman.detect(twoCliques(5))
    val b = GirvanNewman.detect(twoCliques(5))
    assert(a.toSeq == b.toSeq)
  }

  test("single clique stays one community") {
    val k = 6
    val nodes = (0 until k).map(_.toLong)
    val edges = for { i <- 0 until k; j <- i + 1 until k } yield (i.toLong, j.toLong)
    val comm = GirvanNewman.detect(LocalGraph(nodes, edges))
    assert(comm.toSet.size == 1)
  }

  test("star graph: modularity never positive, single community kept") {
    val nodes = (0 until 6).map(_.toLong)
    val edges = (1 until 6).map(i => (0L, i.toLong))
    val comm = GirvanNewman.detect(LocalGraph(nodes, edges))
    // any split of a star has Q <= 0; initial connected partition retained
    assert(comm.toSet.size == 1)
  }

  test("isolated node alongside a clique is a singleton community") {
    val g = LocalGraph(Seq(1L, 2L, 3L, 9L), Seq((1L, 2L), (2L, 3L), (1L, 3L)))
    val comm = GirvanNewman.detect(g)
    val byId = g.nodeIds.zip(comm).toMap
    assert(byId(1L) == byId(2L) && byId(2L) == byId(3L))
    assert(byId(9L) != byId(1L))
  }

  test("modularity of the two-clique ground truth beats the trivial partition") {
    val g = twoCliques(4)
    val trivial = Array.fill(g.numNodes)(0)
    val truth = Array.tabulate(g.numNodes)(i => if (i < 4) 0 else 1)
    val qTrivial = GirvanNewman.modularity(g, trivial)
    val qTruth = GirvanNewman.modularity(g, truth)
    assert(qTruth > qTrivial)
    assert(math.abs(qTrivial) < 1e-12) // single community has Q = 0
  }

  test("modularity matches hand computation on a 4-cycle") {
    // cycle 0-1-2-3-0; partition {0,1},{2,3}: inside=2 edges? no — edges
    // (0,1) and (2,3) inside => e=2/4; degree sums 4 and 4 => (4/8)^2 each
    val g = LocalGraph(Seq(0L, 1L, 2L, 3L), Seq((0L, 1L), (1L, 2L), (2L, 3L), (0L, 3L)))
    val q = GirvanNewman.modularity(g, Array(0, 0, 1, 1))
    assert(math.abs(q - (2.0 / 4 - 2 * 0.25)) < 1e-12)
  }

  test("edge betweenness of a path is highest in the middle") {
    // path 0-1-2-3: edge (1,2) lies on 4 of the 6 shortest paths
    val g = LocalGraph(Seq(0L, 1L, 2L, 3L), Seq((0L, 1L), (1L, 2L), (2L, 3L)))
    val bet = betweenness(g)
    assert(bet((1, 2)) > bet((0, 1)))
    assert(math.abs(bet((1, 2)) - 4.0) < 1e-9)
    assert(math.abs(bet((0, 1)) - 3.0) < 1e-9)
  }

  test("edge betweenness of the bridge dominates in two cliques") {
    val g = twoCliques(4)
    val bet = betweenness(g)
    val bridge = bet((0, 4))
    bet.foreach { case (e, v) => if (e != (0, 4)) assert(v < bridge) }
  }

  test("betweenness sums: star center edges each carry n-1 paths worth") {
    // star with 4 leaves: each edge has betweenness (n-1) = 4 (1 for the
    // leaf itself + 3 paths to other leaves each counted 1/... ) = 4
    val g = LocalGraph(Seq(0L, 1L, 2L, 3L, 4L), (1 to 4).map(i => (0L, i.toLong)))
    val bet = GirvanNewman.edgeBetweenness(g)
    assert(bet.length == 4)
    bet.foreach(v => assert(math.abs(v - 4.0) < 1e-9))
  }

  test("three cliques in a chain give three communities") {
    val k = 4
    def clique(off: Int) = for { i <- 0 until k; j <- i + 1 until k }
      yield ((off + i).toLong, (off + j).toLong)
    val edges = clique(0) ++ clique(k) ++ clique(2 * k) ++
      Seq((0L, k.toLong), ((k + 1).toLong, (2 * k).toLong))
    val g = LocalGraph((0 until 3 * k).map(_.toLong), edges)
    val comm = GirvanNewman.detect(g)
    assert(groups(comm) == Set((0 until k).toSet, (k until 2 * k).toSet, (2 * k until 3 * k).toSet))
  }

  test("noisy planted partition is mostly recovered") {
    val rng = new Random(5)
    val n = 24
    val nodes = (0 until n).map(_.toLong)
    val edges = for {
      i <- 0 until n; j <- i + 1 until n
      sameBlock = (i < n / 2) == (j < n / 2)
      p = if (sameBlock) 0.7 else 0.05
      if rng.nextDouble() < p
    } yield (i.toLong, j.toLong)
    val comm = GirvanNewman.detect(LocalGraph(nodes, edges))
    // majority of each block should land in one community
    val blockA = (0 until n / 2).map(comm).groupBy(identity).values.map(_.size).max
    val blockB = (n / 2 until n).map(comm).groupBy(identity).values.map(_.size).max
    assert(blockA >= n / 2 - 2 && blockB >= n / 2 - 2)
  }

  /** Graphs on which betweenness ties are common (cycles, grids, complete
    * bipartite graphs, chained cliques) or absent (sparse and planted
    * random graphs), each with isolated nodes sometimes. Each comes as its
    * node ids, its edges as a raw list (shuffled, endpoints swapped at
    * random, with duplicates, self-loops and unknown endpoints added) and
    * its edges as the canonical list, sorted by (min, max) index. */
  private def oracleGraphs: Seq[(Seq[Long], Seq[(Long, Long)], Seq[(Long, Long)])] = {
    val rng = new Random(11)
    def variants(n: Int, edges: Seq[(Int, Int)]) = {
      val ids = rng.shuffle((1L to 1000L).toVector).take(n)
      val raw = rng.shuffle(edges ++ edges.filter(_ => rng.nextInt(4) == 0) ++
        Seq.fill(1 + rng.nextInt(2)) { val i = rng.nextInt(n); (i, i) })
        .map { case (i, j) => if (rng.nextBoolean()) (ids(i), ids(j)) else (ids(j), ids(i)) } ++
        Seq((ids(0), 5000L), (5001L, 5002L))
      val byId = ids.sorted
      val canonical = edges.map { case (i, j) =>
        val (a, b) = (byId.indexOf(ids(i)), byId.indexOf(ids(j)))
        (math.min(a, b), math.max(a, b))
      }.distinct.sorted.map { case (a, b) => (byId(a), byId(b)) }
      (ids, rng.shuffle(raw), canonical)
    }
    def keep(n: Int, edges: Seq[(Int, Int)]) = edges.filter { case (i, j) => i < n && j < n }
    val families = (3 to 9).flatMap { k =>
      val cycle = (0 until k).map(i => (i, (i + 1) % k))
      val grid = for { r <- 0 until k; c <- 0 until k; (dr, dc) <- Seq((0, 1), (1, 0))
                       if r + dr < k && c + dc < k } yield (r * k + c, (r + dr) * k + c + dc)
      val bipartite = for { i <- 0 until k; j <- 0 until k } yield (i, k + j)
      val cliques = for { c <- 0 until 3; i <- 0 until k; j <- i + 1 until k }
        yield (c * k + i, c * k + j)
      Seq((k, cycle), (k * k, grid), (2 * k, bipartite),
          (3 * k, cliques ++ Seq((0, k), (k + 1, 2 * k), (2 * k + 2, 1))))
    }
    val random = (1 to 40).map { t =>
      val n = 5 + rng.nextInt(50)
      val p = if (t % 2 == 0) 0.1 + 0.4 * rng.nextDouble() else 0.0
      val blocks = 1 + rng.nextInt(4)
      val edges = for { i <- 0 until n; j <- i + 1 until n
                        q = if (p > 0) p else if (i % blocks == j % blocks) 0.6 else 0.04
                        if rng.nextDouble() < q } yield (i, j)
      (n + rng.nextInt(3), edges)
    }
    (families ++ random).map { case (n, es) => variants(n, keep(n, es)) }
  }

  private def bits(xs: Seq[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToRawLongBits)

  test("detect and edgeBetweenness equal the LinkedHashSet oracle bit for bit") {
    val graphs = oracleGraphs
    assert(graphs.exists { case (ids, _, es) => ids.size > 40 && es.size > 100 })
    var tied = 0
    graphs.foreach { case (ids, raw, canonical) =>
      val g = LocalGraph(ids, raw)
      val o = LinkedGraph(ids, canonical)
      assert(g.numEdges == o.numEdges && g.numEdges == canonical.size)
      val want = GirvanNewmanOracle.edgeBetweenness(o).toSeq
      assert((0 until g.numEdges).map(e => (g.lo(e), g.hi(e))) == want.map(_._1))
      assert(bits(GirvanNewman.edgeBetweenness(g).toSeq) == bits(want.map(_._2)), ids)
      if (want.nonEmpty && want.count(e => math.abs(e._2 - want.map(_._2).max) <= 1e-12) > 1)
        tied += 1
      Seq(0.0, 0.1, 0.5, 1e9).foreach { pf =>
        assert(GirvanNewman.detect(g, pf).toSeq == GirvanNewmanOracle.detect(o, pf).toSeq, (ids, pf))
      }
    }
    assert(tied > 10, "too few graphs with tied maximum betweenness")
  }

  test("betweenness, partitions and detectOne tightness do not depend on edge order") {
    val rng = new Random(17)
    var graphs = 0
    oracleGraphs.foreach { case (ids, raw, _) =>
      val g = LocalGraph(ids, raw)
      val bet = bits(GirvanNewman.edgeBetweenness(g).toSeq)
      val comm = GirvanNewman.detect(g).toSeq
      val assigns = LocalCommunities.detectOne(0L, ids.toArray, raw)
      (1 to 3).foreach { _ =>
        val order = rng.shuffle(raw).map(e => if (rng.nextBoolean()) e.swap else e)
        val h = LocalGraph(rng.shuffle(ids), order)
        assert(bits(GirvanNewman.edgeBetweenness(h).toSeq) == bet, ids)
        assert(GirvanNewman.detect(h).toSeq == comm, ids)
        val again = LocalCommunities.detectOne(0L, rng.shuffle(ids).toArray, order)
        assert(again.map(a => (a.friend, a.comm)) == assigns.map(a => (a.friend, a.comm)), ids)
        assert(bits(again.map(_.tightness)) == bits(assigns.map(_.tightness)), ids)
      }
      graphs += 1
    }
    assert(graphs == 68)
  }
}
