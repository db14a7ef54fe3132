package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LocalGraphSpec extends AnyFunSuite {

  private def triangle: LocalGraph = LocalGraph(Seq(1L, 2L, 3L), Seq((1L, 2L), (2L, 3L), (1L, 3L)))

  private def edges(g: LocalGraph): Seq[(Int, Int)] = (0 until g.numEdges).map(e => (g.lo(e), g.hi(e)))

  private def rows(g: LocalGraph): Seq[Seq[Int]] = (0 until g.numNodes).map(g.neighbors(_).toSeq)

  test("empty graph has no nodes or edges") {
    val g = LocalGraph(Nil, Nil)
    assert(g.numNodes == 0)
    assert(g.numEdges == 0)
  }

  test("nodes are sorted and indexed densely") {
    val g = LocalGraph(Seq(30L, 10L, 20L), Seq((30L, 10L)))
    assert(g.nodeIds.toSeq == Seq(10L, 20L, 30L))
    assert(edges(g) == Seq((0, 2)))
  }

  test("duplicate nodes are collapsed") {
    val g = LocalGraph(Seq(1L, 1L, 2L), Nil)
    assert(g.numNodes == 2)
  }

  test("triangle has 3 edges and degree 2 everywhere") {
    val g = triangle
    assert(g.numEdges == 3)
    (0 until 3).foreach(i => assert(g.degree(i) == 2))
  }

  test("the builder drops self-loops") {
    val g = LocalGraph(Seq(1L, 2L), Seq((1L, 1L), (1L, 2L), (2L, 2L)))
    assert(edges(g) == Seq((0, 1)))
    assert(rows(g) == Seq(Seq(1), Seq(0)))
  }

  test("duplicate and reversed pairs become one edge") {
    val g = LocalGraph(Seq(1L, 2L, 3L), Seq((2L, 1L), (1L, 2L), (2L, 1L), (3L, 2L), (2L, 3L)))
    assert(edges(g) == Seq((0, 1), (1, 2)))
    assert((0 until 3).map(g.degree) == Seq(1, 2, 1))
  }

  test("edges with endpoints outside node set are dropped") {
    val g = LocalGraph(Seq(1L, 2L), Seq((1L, 2L), (1L, 99L), (98L, 97L)))
    assert(g.numEdges == 1)
  }

  test("random graph: handshake lemma holds") {
    val rng = new Random(1)
    val n = 40
    val nodes = (0 until n).map(_.toLong)
    val edges = (0 until 200).map(_ => (rng.nextInt(n).toLong, rng.nextInt(n).toLong))
    val g = LocalGraph(nodes, edges)
    val degSum = (0 until n).map(g.degree).sum
    assert(degSum == 2 * g.numEdges)
  }

  test("neighbors are symmetric") {
    val rng = new Random(2)
    val nodes = (0 until 20).map(_.toLong)
    val edges = (0 until 50).map(_ => (rng.nextInt(20).toLong, rng.nextInt(20).toLong))
    val g = LocalGraph(nodes, edges)
    (0 until 20).foreach { i =>
      g.neighbors(i).foreach(j => assert(g.neighbors(j).exists(_ == i)))
    }
  }

  test("edge ids follow (min, max) order, rows ascend, and the CSR arrays agree") {
    val rng = new Random(3)
    (1 to 50).foreach { t =>
      val n = 1 + rng.nextInt(30)
      val ids = rng.shuffle((1L to 500L).toVector).take(n)
      val raw = Seq.fill(rng.nextInt(4 * n))((ids(rng.nextInt(n)), ids(rng.nextInt(n))))
      val g = LocalGraph(ids, raw ++ Seq((ids(0), 999L), (-1L, ids(0))))
      val idx = g.nodeIds.zipWithIndex.toMap
      val want = raw.collect { case (u, v) if u != v =>
        (math.min(idx(u), idx(v)), math.max(idx(u), idx(v))) }.distinct.sorted
      assert(edges(g) == want, t)
      rows(g).zipWithIndex.foreach { case (row, v) =>
        assert(row == row.sorted && row.distinct == row, (t, v))
        assert(row.toSet == want.collect { case (a, b) if a == v => b case (a, b) if b == v => a }.toSet)
        (g.start(v) until g.start(v + 1)).foreach { k =>
          assert(want(g.eid(k)) == (math.min(v, g.nbr(k)), math.max(v, g.nbr(k))), (t, v, k))
        }
      }
    }
  }

  test("the graph does not depend on the order of nodes or edges") {
    val rng = new Random(4)
    val nodes = (0 until 25).map(_ => rng.nextInt(1000).toLong)
    val raw = Seq.fill(80)((nodes(rng.nextInt(25)), nodes(rng.nextInt(25))))
    val g = LocalGraph(nodes, raw)
    (1 to 5).foreach { _ =>
      val h = LocalGraph(rng.shuffle(nodes), rng.shuffle(raw).map(e => if (rng.nextBoolean()) e.swap else e))
      assert(h.nodeIds.toSeq == g.nodeIds.toSeq)
      assert(edges(h) == edges(g))
      assert(rows(h) == rows(g))
      assert(h.eid.toSeq == g.eid.toSeq)
    }
  }

  // `LinkedGraph`, the mutable graph `GirvanNewmanOracle` runs on: the
  // operations the oracle relies on

  private def linkedTriangle: LinkedGraph =
    LinkedGraph(Seq(1L, 2L, 3L), Seq((1L, 2L), (2L, 3L), (1L, 3L)))

  test("addEdge ignores self loops") {
    val g = LinkedGraph(Seq(1L, 2L), Nil)
    g.addEdge(0, 0)
    assert(g.numEdges == 0)
  }

  test("addEdge ignores duplicates") {
    val g = LinkedGraph(Seq(1L, 2L), Seq((1L, 2L), (2L, 1L), (1L, 2L)))
    assert(g.numEdges == 1)
  }

  test("removeEdge removes both directions") {
    val g = linkedTriangle
    g.removeEdge(0, 1)
    assert(g.numEdges == 2)
    assert(!g.hasEdge(0, 1) && !g.hasEdge(1, 0))
  }

  test("removeEdge on absent edge is a no-op") {
    val g = LinkedGraph(Seq(1L, 2L, 3L), Seq((1L, 2L)))
    g.removeEdge(0, 2)
    assert(g.numEdges == 1)
  }

  test("copy is independent of the original") {
    val g = linkedTriangle
    val c = g.copy()
    g.removeEdge(0, 1)
    assert(c.numEdges == 3)
    assert(g.numEdges == 2)
  }

  test("connectedComponents on a connected graph is all zero") {
    assert(linkedTriangle.connectedComponents().toSeq == Seq(0, 0, 0))
  }

  test("connectedComponents separates two cliques") {
    val g = LinkedGraph(Seq(1L, 2L, 3L, 4L), Seq((1L, 2L), (3L, 4L)))
    val c = g.connectedComponents()
    assert(c(0) == c(1) && c(2) == c(3) && c(0) != c(2))
  }

  test("isolated nodes are their own components") {
    val g = LinkedGraph(Seq(1L, 2L, 3L), Seq((1L, 2L)))
    val c = g.connectedComponents()
    assert(c(2) != c(0))
  }

  test("edgeList returns canonical sorted-index pairs") {
    val g = linkedTriangle
    assert(g.edgeList().toSet == Set((0, 1), (0, 2), (1, 2)))
  }

  test("edgeList reflects removals") {
    val g = linkedTriangle
    g.removeEdge(1, 2)
    assert(g.edgeList().toSet == Set((0, 1), (0, 2)))
  }

  test("LinkedGraph built from sorted edges has the LocalGraph's rows and edge order") {
    val rng = new Random(5)
    (1 to 30).foreach { t =>
      val n = 2 + rng.nextInt(30)
      val ids = (0 until n).map(_.toLong)
      val raw = Seq.fill(3 * n)((rng.nextInt(n).toLong, rng.nextInt(n).toLong))
      val g = LocalGraph(ids, raw)
      val sorted = edges(g).map { case (a, b) => (a.toLong, b.toLong) }
      val linked = LinkedGraph(ids, sorted)
      assert(linked.edgeList() == edges(g), t)
      assert((0 until n).map(linked.neighbors(_).toSeq) == rows(g), t)
      assert((0 until n).map(linked.copy().neighbors(_).toSeq) == rows(g), t)
    }
  }
}
