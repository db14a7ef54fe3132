package repro.ml

/** A CART-style regression tree fit on first/second-order gradients, i.e.
  * the tree booster inside our from-scratch GBDT (substituting the XGBoost
  * library, which is unavailable offline). Split gain and leaf weights use
  * the standard second-order formulas:
  *
  *   w*   = −G / (H + λ)
  *   gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
  */
object RegressionTree {

  /** Internal node (feature/threshold, left/right) or leaf (value, leafId).
    * `x(feature) < threshold` goes left. */
  final case class Node(feature: Int, threshold: Double,
                        left: Node, right: Node,
                        value: Double, leafId: Int) extends Serializable {
    def isLeaf: Boolean = left == null
  }

  final case class Params(maxDepth: Int = 3, minSamplesLeaf: Int = 5,
                          lambda: Double = 1.0, gamma: Double = 0.0)

  /** The rows of one training call in split-search order: per feature, a
    * column of values and the rows sorted by that value, ties kept in their
    * order in `rows` (XGBoost's pre-sorted "column blocks", Chen & Guestrin,
    * KDD'16 §4.1). The order depends on `x` only, so one presort serves
    * every tree boosted on the same rows. */
  final class Presorted private[RegressionTree] (
      private[RegressionTree] val rows: Array[Int],
      private[RegressionTree] val cols: Array[Array[Double]],
      private[RegressionTree] val order: Array[Array[Int]])

  /** Sort `rows` once per feature of `x`. */
  def presort(x: Array[Array[Double]], rows: Array[Int]): Presorted = {
    val nFeat = if (rows.isEmpty) 0 else x(rows(0)).length
    val cols = Array.tabulate(nFeat) { f =>
      val col = new Array[Double](x.length)
      rows.foreach(i => col(i) = x(i)(f))
      col
    }
    // a stable sort under java.lang.Double.compare, the order of the
    // default Ordering[Double]
    val order = cols.map(col => rows.sortBy(i => col(i))(Ordering.Double.TotalOrdering))
    new Presorted(rows, cols, order)
  }

  /** Fit a tree on presorted rows `x(i)`, `i` in `rows` of `presort(x,
    * rows)`, with gradients `grad(i)` and hessians `hess(i)`. Each node owns one segment `[lo, hi)` of
    * the row list (in `rows` order) and of every feature's sorted list; a
    * split stably partitions each of them into left then right, so every
    * list stays in the order a per-node stable sort of the node's rows
    * would give. */
  def fit(p: Presorted, grad: Array[Double], hess: Array[Double], params: Params): Tree = {
    val rs = p.rows.clone()
    val order = p.order.map(_.clone())
    val goLeft = new Array[Boolean](if (p.cols.isEmpty) 0 else p.cols(0).length)
    val buf = new Array[Int](rs.length)
    var nextLeaf = 0

    // move the marked entries of a(lo until hi) to its front, both sides
    // keeping their order
    def partition(a: Array[Int], lo: Int, hi: Int): Unit = {
      var w = lo; var nr = 0; var j = lo
      while (j < hi) {
        val i = a(j)
        if (goLeft(i)) { a(w) = i; w += 1 } else { buf(nr) = i; nr += 1 }
        j += 1
      }
      System.arraycopy(buf, 0, a, w, nr)
    }

    /** Exhaustive best split over all features and midpoints of a node
      * whose gradients sum to `gTot` and hessians to `hTot`. Returns
      * (feature, threshold) when a positive-gain split exists. */
    def bestSplit(lo: Int, hi: Int, gTot: Double, hTot: Double): Option[(Int, Double)] = {
      val parentScore = gTot * gTot / (hTot + params.lambda)

      var bestF = -1; var bestThr = 0.0; var bestGain = 0.0
      var f = 0
      while (f < order.length) {
        val col = p.cols(f); val sorted = order(f)
        var gl = 0.0; var hl = 0.0
        var j = lo
        while (j < hi - 1) {
          val i = sorted(j)
          gl += grad(i); hl += hess(i)
          val v = col(i); val vNext = col(sorted(j + 1))
          if (v != vNext && j - lo + 1 >= params.minSamplesLeaf &&
              hi - j - 1 >= params.minSamplesLeaf) {
            val gr = gTot - gl; val hr = hTot - hl
            val gain = 0.5 * (gl * gl / (hl + params.lambda) +
                              gr * gr / (hr + params.lambda) - parentScore) - params.gamma
            if (gain > 1e-12 && (bestF < 0 || gain > bestGain)) {
              bestF = f; bestThr = (v + vNext) / 2.0; bestGain = gain
            }
          }
          j += 1
        }
        f += 1
      }
      if (bestF < 0) None else Some((bestF, bestThr))
    }

    def build(lo: Int, hi: Int, depth: Int): Node = {
      var g = 0.0; var h = 0.0
      var j = lo
      while (j < hi) { g += grad(rs(j)); h += hess(rs(j)); j += 1 }
      def mkLeaf(): Node = {
        val id = nextLeaf; nextLeaf += 1
        Node(-1, 0.0, null, null, -g / (h + params.lambda), id)
      }
      if (depth >= params.maxDepth || hi - lo < 2 * params.minSamplesLeaf) return mkLeaf()
      bestSplit(lo, hi, g, h) match {
        case None => mkLeaf()
        case Some((f, thr)) =>
          val col = p.cols(f)
          var nl = 0
          j = lo
          while (j < hi) {
            val i = rs(j)
            goLeft(i) = col(i) < thr
            if (goLeft(i)) nl += 1
            j += 1
          }
          if (nl < params.minSamplesLeaf || hi - lo - nl < params.minSamplesLeaf) mkLeaf()
          else {
            partition(rs, lo, hi)
            order.foreach(partition(_, lo, hi))
            val mid = lo + nl
            Node(f, thr, build(lo, mid, depth + 1), build(mid, hi, depth + 1), 0.0, -1)
          }
      }
    }
    val root = build(0, rs.length, 0)
    new Tree(root, nextLeaf)
  }

  /** A fitted tree: predict values and leaf indices. */
  final class Tree(val root: Node, val numLeaves: Int) extends Serializable {
    def predict(xi: Array[Double]): Double = leafOf(xi).value
    def leafIndex(xi: Array[Double]): Int = leafOf(xi).leafId
    def leafOf(xi: Array[Double]): Node = {
      var n = root
      while (!n.isLeaf) n = if (xi(n.feature) < n.threshold) n.left else n.right
      n
    }
    /** Leaf values indexed by leafId (the "values of the leaf nodes" used
      * as community embeddings in the paper's LoCEC-XGB variant). */
    lazy val leafValues: Array[Double] = {
      val vals = new Array[Double](numLeaves)
      def walk(n: Node): Unit =
        if (n.isLeaf) vals(n.leafId) = n.value else { walk(n.left); walk(n.right) }
      walk(root)
      vals
    }
    def depth: Int = {
      def d(n: Node): Int = if (n.isLeaf) 0 else 1 + math.max(d(n.left), d(n.right))
      d(root)
    }
  }
}
