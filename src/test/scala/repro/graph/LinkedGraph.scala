package repro.graph

import scala.collection.mutable

/** The input graph of `GirvanNewmanOracle`: the mutable ego-network graph
  * `GirvanNewman` ran on before `LocalGraph` became an immutable CSR graph.
  *
  * Nodes carry external `Long` ids but are addressed internally by dense
  * `Int` indices; adjacency is boxed `LinkedHashSet`s in edge-arrival order.
  * Built from an edge list sorted by `(min, max)` index, every row is
  * ascending and `edgeList()` is in `(min, max)` order, as in `LocalGraph`,
  * so the oracle run on it is the exact reference for `GirvanNewman`.
  *
  * The edge set is mutable so the oracle can remove edges; the original
  * degree/edge counts are retained by the caller where needed (e.g. for
  * modularity on the original graph).
  */
final class LinkedGraph(val nodeIds: Array[Long]) extends Serializable {

  /** index of each external node id. */
  val index: Map[Long, Int] = nodeIds.zipWithIndex.toMap

  /** adjacency sets over internal indices; LinkedHashSet keeps insertion
    * order so iteration (and hence the whole pipeline) is deterministic. */
  val adj: Array[mutable.LinkedHashSet[Int]] =
    Array.fill(nodeIds.length)(mutable.LinkedHashSet.empty[Int])

  private var edgeCount: Int = 0

  def numNodes: Int = nodeIds.length
  def numEdges: Int = edgeCount

  def degree(i: Int): Int = adj(i).size
  def neighbors(i: Int): Iterable[Int] = adj(i)
  def hasEdge(a: Int, b: Int): Boolean = adj(a).contains(b)

  /** Add an undirected edge by internal indices; self-loops and duplicates
    * are ignored. */
  def addEdge(a: Int, b: Int): Unit = {
    if (a != b && !adj(a).contains(b)) {
      adj(a) += b; adj(b) += a; edgeCount += 1
    }
  }

  /** Add an undirected edge by external node ids (both must exist). */
  def addEdgeByIds(u: Long, v: Long): Unit = addEdge(index(u), index(v))

  /** Remove an undirected edge; no-op if absent. */
  def removeEdge(a: Int, b: Int): Unit = {
    if (adj(a).contains(b)) {
      adj(a) -= b; adj(b) -= a; edgeCount -= 1
    }
  }

  /** Deep copy (node ids shared, adjacency copied). */
  def copy(): LinkedGraph = {
    val g = new LinkedGraph(nodeIds)
    var i = 0
    while (i < numNodes) {
      adj(i).foreach { j => if (i < j) g.addEdge(i, j) }
      i += 1
    }
    g
  }

  /** Connected components; returns the component id of every node, with ids
    * numbered 0.. in order of the smallest node index they contain. */
  def connectedComponents(): Array[Int] = {
    val comp = Array.fill(numNodes)(-1)
    var next = 0
    val stack = mutable.ArrayDeque.empty[Int]
    var i = 0
    while (i < numNodes) {
      if (comp(i) < 0) {
        comp(i) = next
        stack.append(i)
        while (stack.nonEmpty) {
          val u = stack.removeLast()
          adj(u).foreach { v => if (comp(v) < 0) { comp(v) = next; stack.append(v) } }
        }
        next += 1
      }
      i += 1
    }
    comp
  }

  /** All current edges as (minIndex, maxIndex) pairs, deterministic order. */
  def edgeList(): IndexedSeq[(Int, Int)] = {
    val buf = IndexedSeq.newBuilder[(Int, Int)]
    var i = 0
    while (i < numNodes) {
      adj(i).foreach { j => if (i < j) buf += ((i, j)) }
      i += 1
    }
    buf.result()
  }
}

object LinkedGraph {

  /** Build a graph over `nodes` with the given undirected edges (by id).
    * Edges whose endpoints are not both in `nodes` are dropped — callers
    * pass ego-network member lists plus inner edges, and the inner-edge
    * list can mention only members. */
  def apply(nodes: Iterable[Long], edges: Iterable[(Long, Long)]): LinkedGraph = {
    val ids = nodes.toArray.distinct.sorted
    val g = new LinkedGraph(ids)
    edges.foreach { case (u, v) =>
      (g.index.get(u), g.index.get(v)) match {
        case (Some(a), Some(b)) => g.addEdge(a, b)
        case _                  => ()
      }
    }
    g
  }
}
