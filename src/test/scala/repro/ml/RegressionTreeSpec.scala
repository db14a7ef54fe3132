package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RegressionTreeSpec extends AnyFunSuite {

  /** Squared-error fitting: grad = pred0 - y with pred0 = 0, hess = 1. */
  private def fitSquared(x: Array[Array[Double]], y: Array[Double],
                         params: RegressionTree.Params = RegressionTree.Params(lambda = 0.0, minSamplesLeaf = 1))
      : RegressionTree.Tree =
    RegressionTree.fit(RegressionTree.presort(x, Array.tabulate(y.length)(identity)),
      y.map(-_), Array.fill(y.length)(1.0), params)

  test("constant target yields a single leaf with that value") {
    val x = Array.tabulate(10)(i => Array(i.toDouble))
    val y = Array.fill(10)(3.0)
    val t = fitSquared(x, y)
    assert(t.numLeaves == 1)
    assert(math.abs(t.predict(Array(0.0)) - 3.0) < 1e-9)
  }

  test("perfect binary split on one feature is found") {
    val x = Array.tabulate(20)(i => Array(if (i < 10) 0.0 else 1.0))
    val y = Array.tabulate(20)(i => if (i < 10) -1.0 else 1.0)
    val t = fitSquared(x, y)
    assert(math.abs(t.predict(Array(0.0)) + 1.0) < 1e-9)
    assert(math.abs(t.predict(Array(1.0)) - 1.0) < 1e-9)
  }

  test("split picks the informative feature among noise") {
    val rng = new Random(0)
    val x = Array.tabulate(100)(i => Array(rng.nextDouble(), if (i % 2 == 0) 0.0 else 1.0, rng.nextDouble()))
    val y = Array.tabulate(100)(i => if (i % 2 == 0) 0.0 else 10.0)
    val t = fitSquared(x, y, RegressionTree.Params(maxDepth = 1, minSamplesLeaf = 5, lambda = 0.0))
    assert(t.root.feature == 1)
  }

  test("maxDepth bounds the tree depth") {
    val rng = new Random(1)
    val x = Array.tabulate(200)(_ => Array(rng.nextDouble(), rng.nextDouble()))
    val y = x.map(xi => xi(0) * 3 + xi(1))
    val t = fitSquared(x, y, RegressionTree.Params(maxDepth = 2, minSamplesLeaf = 1, lambda = 0.0))
    assert(t.depth <= 2)
  }

  test("minSamplesLeaf is respected") {
    val x = Array.tabulate(10)(i => Array(i.toDouble))
    val y = Array.tabulate(10)(_.toDouble)
    val t = fitSquared(x, y, RegressionTree.Params(maxDepth = 10, minSamplesLeaf = 3, lambda = 0.0))
    // with 10 samples and min 3 per leaf, at most 3 leaves
    assert(t.numLeaves <= 3)
  }

  test("leaf value is the second-order optimum -G/(H+lambda)") {
    val x = Array(Array(0.0), Array(0.0))
    val grad = Array(-2.0, -4.0) // G = -6
    val hess = Array(1.0, 1.0)   // H = 2
    val t = RegressionTree.fit(RegressionTree.presort(x, Array(0, 1)), grad, hess,
      RegressionTree.Params(maxDepth = 0, lambda = 1.0))
    assert(math.abs(t.predict(Array(0.0)) - 2.0) < 1e-12) // 6/(2+1)
  }

  test("leafIndex maps distinct regions to distinct leaves") {
    val x = Array.tabulate(20)(i => Array(if (i < 10) 0.0 else 1.0))
    val y = Array.tabulate(20)(i => if (i < 10) -1.0 else 1.0)
    val t = fitSquared(x, y)
    val l0 = t.leafIndex(Array(0.0))
    val l1 = t.leafIndex(Array(1.0))
    assert(l0 != l1)
    assert(l0 < t.numLeaves && l1 < t.numLeaves)
  }

  test("leafValues array matches predictions") {
    val x = Array.tabulate(20)(i => Array(if (i < 10) 0.0 else 1.0))
    val y = Array.tabulate(20)(i => if (i < 10) -1.0 else 1.0)
    val t = fitSquared(x, y)
    Seq(Array(0.0), Array(1.0)).foreach { xi =>
      assert(t.leafValues(t.leafIndex(xi)) == t.predict(xi))
    }
  }

  test("xor pattern needs depth 2") {
    // NB: perfectly symmetric XOR has zero root gain and greedy CART
    // (like real XGBoost) refuses to split — replicate one corner once
    // more to break the symmetry.
    val x = Array(Array(0.0, 0.0), Array(0.0, 1.0), Array(1.0, 0.0), Array(1.0, 1.0))
      .flatMap(v => Array.fill(5)(v)) ++ Array(Array(0.0, 0.0))
    val y = x.map(v => if (v(0) != v(1)) 1.0 else -1.0)
    val shallow = fitSquared(x, y, RegressionTree.Params(maxDepth = 1, minSamplesLeaf = 1, lambda = 0.0))
    val deep = fitSquared(x, y, RegressionTree.Params(maxDepth = 2, minSamplesLeaf = 1, lambda = 0.0))
    def mse(t: RegressionTree.Tree) =
      x.zip(y).map { case (xi, yi) => math.pow(t.predict(xi) - yi, 2) }.sum / x.length
    assert(mse(deep) < 1e-9)
    assert(mse(shallow) > 0.5)
  }

  test("no split when all feature values identical") {
    val x = Array.fill(10)(Array(1.0))
    val y = Array.tabulate(10)(_.toDouble)
    val t = fitSquared(x, y)
    assert(t.numLeaves == 1)
  }

  test("lambda shrinks leaf values toward zero") {
    val x = Array.fill(4)(Array(0.0))
    val y = Array.fill(4)(1.0)
    val t0 = fitSquared(x, y, RegressionTree.Params(maxDepth = 0, lambda = 0.0))
    val t10 = fitSquared(x, y, RegressionTree.Params(maxDepth = 0, lambda = 10.0))
    assert(math.abs(t0.predict(Array(0.0))) > math.abs(t10.predict(Array(0.0))))
  }

  // ---------------------------------------------- presorted vs. oracle --

  /** Trees are identical when every node agrees bit for bit. */
  private def assertSameTree(a: RegressionTree.Tree, b: RegressionTree.Tree, clue: String): Unit = {
    def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    def same(m: RegressionTree.Node, n: RegressionTree.Node, path: String): Unit = {
      assert(m.isLeaf == n.isLeaf, s"$clue at $path: leaf vs split")
      assert(m.feature == n.feature && bits(m.threshold) == bits(n.threshold) &&
             bits(m.value) == bits(n.value) && m.leafId == n.leafId,
             s"$clue at $path: $m vs $n")
      if (!m.isLeaf) { same(m.left, n.left, path + "L"); same(m.right, n.right, path + "R") }
    }
    assert(a.numLeaves == b.numLeaves, clue)
    same(a.root, b.root, "root")
  }

  /** A matrix with heavy ties: column 0 is all zeros, column 1 constant,
    * the rest quantized to 2–5 levels (one of which may be -0.0, which
    * sorts before 0.0 but compares equal to it). */
  private def tiedMatrix(rng: Random, n: Int, nFeat: Int): Array[Array[Double]] = {
    val levels = Array.tabulate(nFeat) { f =>
      val ls = Array.fill(2 + rng.nextInt(4))(math.round(rng.nextGaussian() * 4) / 2.0)
      if (f % 3 == 2) ls(0) = -0.0
      ls
    }
    Array.tabulate(n) { _ =>
      Array.tabulate(nFeat) {
        case 0 => 0.0
        case 1 => 1.5
        case f => levels(f)(rng.nextInt(levels(f).length))
      }
    }
  }

  test("presorted split search builds the oracle's trees on tied inputs") {
    val rng = new Random(17)
    var cases = 0
    for {
      maxDepth <- 0 to 5
      minLeaf <- Seq(1, 5)
      lambda <- Seq(0.0, 1.0)
      gamma <- Seq(0.0, 0.5)
      shuffledSubset <- Seq(false, true)
      _ <- 0 until 4
    } {
      val n = 10 + rng.nextInt(60)
      val x = tiedMatrix(rng, n, 3 + rng.nextInt(4))
      val grad = Array.fill(n)(rng.nextGaussian())
      val hess = Array.fill(n)(0.05 + rng.nextDouble())
      val rows =
        if (shuffledSubset) rng.shuffle((0 until n).toVector).take(1 + rng.nextInt(n)).toArray
        else Array.tabulate(n)(identity)
      val params = RegressionTree.Params(maxDepth, minLeaf, lambda, gamma)
      val clue = s"case $cases: n=$n $params shuffledSubset=$shuffledSubset"
      assertSameTree(RegressionTree.fit(RegressionTree.presort(x, rows), grad, hess, params),
        RegressionTreeOracle.fit(x, grad, hess, rows, params), clue)
      cases += 1
    }
    assert(cases == 384)
  }

  test("tied rows are accumulated in the order of rows") {
    // 1e16 + 1 rounds to 1e16, so the left sum G_L is 1 when the tied rows
    // are added in their order in `rows` (2, 0, 1) but 0 in index order
    // (0, 1, 2), where the split would have zero gain
    val x = Array(Array(0.0), Array(0.0), Array(0.0), Array(1.0))
    val grad = Array(1e16, 1.0, -1e16, -1.0)
    val hess = Array.fill(4)(1.0)
    val rows = Array(2, 0, 1, 3)
    val params = RegressionTree.Params(maxDepth = 1, minSamplesLeaf = 1, lambda = 1.0)
    val t = RegressionTree.fit(RegressionTree.presort(x, rows), grad, hess, params)
    assertSameTree(t, RegressionTreeOracle.fit(x, grad, hess, rows, params), "tied rows")
    assert(t.numLeaves == 2)
  }

  test("one presort serves trees fit on different gradients") {
    val rng = new Random(23)
    val x = tiedMatrix(rng, 80, 6)
    val rows = Array.tabulate(80)(identity)
    val sorted = RegressionTree.presort(x, rows)
    val params = RegressionTree.Params(maxDepth = 4, minSamplesLeaf = 2)
    (0 until 5).foreach { t =>
      val grad = Array.fill(80)(rng.nextGaussian())
      val hess = Array.fill(80)(0.1 + rng.nextDouble())
      assertSameTree(RegressionTree.fit(sorted, grad, hess, params),
        RegressionTreeOracle.fit(x, grad, hess, rows, params), s"tree $t")
    }
  }

  test("repeated row indices follow the oracle") {
    val rng = new Random(29)
    val x = tiedMatrix(rng, 30, 5)
    val grad = Array.fill(30)(rng.nextGaussian())
    val hess = Array.fill(30)(0.1 + rng.nextDouble())
    val rows = Array.fill(60)(rng.nextInt(30))
    val params = RegressionTree.Params(maxDepth = 4, minSamplesLeaf = 2)
    assertSameTree(RegressionTree.fit(RegressionTree.presort(x, rows), grad, hess, params),
      RegressionTreeOracle.fit(x, grad, hess, rows, params), "repeated rows")
  }

  test("a one-row subset gives a single leaf with that row's optimum") {
    val x = Array.tabulate(10)(i => Array(i.toDouble, (i % 3).toDouble))
    val grad = Array.tabulate(10)(i => i - 4.5)
    val hess = Array.fill(10)(0.5)
    val params = RegressionTree.Params(maxDepth = 3, minSamplesLeaf = 1, lambda = 1.0)
    val t = RegressionTree.fit(RegressionTree.presort(x, Array(7)), grad, hess, params)
    assert(t.numLeaves == 1)
    assert(t.predict(x(0)) == -2.5 / 1.5)
    assertSameTree(t, RegressionTreeOracle.fit(x, grad, hess, Array(7), params), "one row")
  }
}
