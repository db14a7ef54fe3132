package repro.ml

import repro.ml.RegressionTree.{Node, Params, Tree}

/** The original tree builder, kept as the test oracle for the presorted
  * split search in [[RegressionTree]]: `bestSplit` re-sorts the node's rows
  * by every feature at every node. `fit` and `bestSplit` are unchanged
  * copies; the presorted builder must produce identical trees. */
object RegressionTreeOracle {

  /** Fit a tree on rows `X(i)` with gradients `grad(i)` and hessians
    * `hess(i)` restricted to row indices `rows`. */
  def fit(x: Array[Array[Double]], grad: Array[Double], hess: Array[Double],
          rows: Array[Int], params: Params): Tree = {
    var nextLeaf = 0
    def leafValue(rs: Array[Int]): Double = {
      var g = 0.0; var h = 0.0
      rs.foreach { i => g += grad(i); h += hess(i) }
      -g / (h + params.lambda)
    }
    def build(rs: Array[Int], depth: Int): Node = {
      def mkLeaf(): Node = {
        val id = nextLeaf; nextLeaf += 1
        Node(-1, 0.0, null, null, leafValue(rs), id)
      }
      if (depth >= params.maxDepth || rs.length < 2 * params.minSamplesLeaf) return mkLeaf()
      val split = bestSplit(x, grad, hess, rs, params)
      split match {
        case None => mkLeaf()
        case Some((f, thr, _)) =>
          val (l, r) = rs.partition(i => x(i)(f) < thr)
          if (l.length < params.minSamplesLeaf || r.length < params.minSamplesLeaf) mkLeaf()
          else Node(f, thr, build(l, depth + 1), build(r, depth + 1), 0.0, -1)
      }
    }
    val root = build(rows, 0)
    new Tree(root, nextLeaf)
  }

  /** Exhaustive best split over all features and midpoints. Returns
    * (feature, threshold, gain) when a positive-gain split exists. */
  private def bestSplit(x: Array[Array[Double]], grad: Array[Double], hess: Array[Double],
                        rows: Array[Int], params: Params): Option[(Int, Double, Double)] = {
    val nFeat = x(rows(0)).length
    var gTot = 0.0; var hTot = 0.0
    rows.foreach { i => gTot += grad(i); hTot += hess(i) }
    val parentScore = gTot * gTot / (hTot + params.lambda)

    var best: (Int, Double, Double) = null
    var f = 0
    while (f < nFeat) {
      val sorted = rows.sortBy(i => x(i)(f))
      var gl = 0.0; var hl = 0.0
      var j = 0
      while (j < sorted.length - 1) {
        val i = sorted(j)
        gl += grad(i); hl += hess(i)
        val v = x(i)(f); val vNext = x(sorted(j + 1))(f)
        if (v != vNext && j + 1 >= params.minSamplesLeaf &&
            sorted.length - j - 1 >= params.minSamplesLeaf) {
          val gr = gTot - gl; val hr = hTot - hl
          val gain = 0.5 * (gl * gl / (hl + params.lambda) +
                            gr * gr / (hr + params.lambda) - parentScore) - params.gamma
          if (gain > 1e-12 && (best == null || gain > best._3)) {
            best = (f, (v + vNext) / 2.0, gain)
          }
        }
        j += 1
      }
      f += 1
    }
    Option(best)
  }
}
