package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GBDTSpec extends AnyFunSuite {

  private def blobs(n: Int, seed: Int): (Array[Array[Double]], Array[String]) = {
    val rng = new Random(seed)
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[String]
    (0 until n).foreach { i =>
      val c = i % 3
      val center = c match {
        case 0 => (0.0, 0.0)
        case 1 => (4.0, 0.0)
        case _ => (0.0, 4.0)
      }
      x += Array(center._1 + rng.nextGaussian() * 0.5, center._2 + rng.nextGaussian() * 0.5)
      y += s"c$c"
    }
    (x.result(), y.result())
  }

  test("classes are discovered and sorted") {
    val (x, y) = blobs(30, 0)
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 3))
    assert(m.classes.toSeq == Seq("c0", "c1", "c2"))
  }

  test("separable blobs are classified almost perfectly") {
    val (x, y) = blobs(150, 1)
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 20))
    val acc = x.zip(y).count { case (xi, yi) => m.predictLabel(xi) == yi }.toDouble / x.length
    assert(acc > 0.95, s"train accuracy $acc")
  }

  test("generalizes to held-out blob points") {
    val (xTr, yTr) = blobs(150, 2)
    val (xTe, yTe) = blobs(60, 3)
    val m = GBDT.train(xTr, yTr, GBDT.Params(numRounds = 20))
    val acc = xTe.zip(yTe).count { case (xi, yi) => m.predictLabel(xi) == yi }.toDouble / xTe.length
    assert(acc > 0.9, s"test accuracy $acc")
  }

  test("predictProba sums to 1 and is in [0,1]") {
    val (x, y) = blobs(60, 4)
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 5))
    val p = m.predictProba(x(0))
    assert(math.abs(p.sum - 1.0) < 1e-9)
    p.foreach(v => assert(v >= 0 && v <= 1))
  }

  test("probability of the true class grows with boosting rounds") {
    val (x, y) = blobs(90, 5)
    val m2 = GBDT.train(x, y, GBDT.Params(numRounds = 2))
    val m20 = GBDT.train(x, y, GBDT.Params(numRounds = 20))
    def meanTrueProb(m: GBDT.Model) = {
      val idx = m.classes.zipWithIndex.toMap
      x.zip(y).map { case (xi, yi) => m.predictProba(xi)(idx(yi)) }.sum / x.length
    }
    assert(meanTrueProb(m20) > meanTrueProb(m2))
  }

  test("binary problem works") {
    val x = Array.tabulate(40)(i => Array(if (i % 2 == 0) 0.0 else 1.0))
    val y = x.map(xi => if (xi(0) == 0.0) "no" else "yes")
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 10))
    assert(m.predictLabel(Array(0.0)) == "no")
    assert(m.predictLabel(Array(1.0)) == "yes")
  }

  test("xor is learned (trees of depth >= 2)") {
    // replicate one corner once more: perfectly symmetric XOR has zero
    // root gain, and greedy boosting (like real XGBoost) never splits
    val pts = Array(Array(0.0, 0.0), Array(0.0, 1.0), Array(1.0, 0.0), Array(1.0, 1.0))
    val x = pts.flatMap(p => Array.fill(8)(p)) ++ Array(Array(0.0, 0.0))
    val y = x.map(p => if (p(0) != p(1)) "odd" else "even")
    val m = GBDT.train(x, y,
      GBDT.Params(numRounds = 20, tree = RegressionTree.Params(maxDepth = 2, minSamplesLeaf = 1)))
    pts.foreach { p =>
      val expected = if (p(0) != p(1)) "odd" else "even"
      assert(m.predictLabel(p) == expected, p.toSeq)
    }
  }

  test("training is deterministic") {
    val (x, y) = blobs(60, 8)
    val a = GBDT.train(x, y, GBDT.Params(numRounds = 5)).predictProba(x(0))
    val b = GBDT.train(x, y, GBDT.Params(numRounds = 5)).predictProba(x(0))
    assert(a.toSeq == b.toSeq)
  }

  test("empty training data throws") {
    intercept[IllegalArgumentException] {
      GBDT.train(Array.empty, Array.empty)
    }
  }

  test("model is java-serializable (Spark broadcast requirement)") {
    val (x, y) = blobs(30, 9)
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 3))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(m)
    val m2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[GBDT.Model]
    assert(m2.predictLabel(x(0)) == m.predictLabel(x(0)))
  }

  /** The oracle's allocating softmax. */
  private def softmax(z: Array[Double]): Array[Double] = {
    val mx = z.max
    val e = z.map(v => math.exp(v - mx))
    val s = e.sum
    e.map(_ / s)
  }

  /** Boosting exactly as `GBDT.train` does it, with every tree fit by the
    * re-sorting oracle. */
  private def oracleModel(x: Array[Array[Double]], y: Array[String], params: GBDT.Params): GBDT.Model = {
    val classes = y.distinct.sorted
    val k = classes.length
    val yi = y.map(classes.zipWithIndex.toMap)
    val n = x.length
    val rows = Array.tabulate(n)(identity)
    val scores = Array.fill(n, k)(0.0)
    val trees = Array.fill(params.numRounds) {
      val roundTrees = Array.tabulate(k) { c =>
        val grad = new Array[Double](n)
        val hess = new Array[Double](n)
        (0 until n).foreach { i =>
          val p = softmax(scores(i))(c)
          grad(i) = p - (if (yi(i) == c) 1.0 else 0.0)
          hess(i) = math.max(p * (1.0 - p), 1e-6)
        }
        RegressionTreeOracle.fit(x, grad, hess, rows, params.tree)
      }
      for (i <- 0 until n; c <- 0 until k)
        scores(i)(c) += params.learningRate * roundTrees(c).predict(x(i))
      roundTrees
    }
    new GBDT.Model(classes, trees, params.learningRate)
  }

  /** Raw scores bitwise equal, and `a`'s probabilities bitwise the oracle
    * softmax of `b`'s scores. */
  private def sameRaw(a: GBDT.Model, b: GBDT.Model, xs: Array[Array[Double]]): Unit =
    xs.foreach { xi =>
      assert(a.predictRaw(xi).map(java.lang.Double.doubleToRawLongBits).toSeq ==
             b.predictRaw(xi).map(java.lang.Double.doubleToRawLongBits).toSeq, xi.toSeq)
      assert(a.predictProba(xi).map(java.lang.Double.doubleToRawLongBits).toSeq ==
             softmax(b.predictRaw(xi)).map(java.lang.Double.doubleToRawLongBits).toSeq, xi.toSeq)
    }

  test("predictRaw is bitwise the oracle-driven boosting's on tied features") {
    val rng = new Random(10)
    val (xb, y) = blobs(120, 10)
    // quantize to few levels and add an all-zero and a constant column
    val x = xb.map(xi => xi.map(v => math.round(v * 2) / 2.0) ++ Array(0.0, 3.0))
    val params = GBDT.Params(numRounds = 8, tree = RegressionTree.Params(maxDepth = 4, minSamplesLeaf = 3))
    val probes = x ++ Array.fill(20)(Array.fill(4)(rng.nextGaussian() * 3))
    sameRaw(GBDT.train(x, y, params), oracleModel(x, y, params), probes)
  }

  test("duplicated rows train like the oracle") {
    val (x0, y0) = blobs(45, 11)
    val x = x0 ++ x0.map(_.clone())
    val y = y0 ++ y0
    val params = GBDT.Params(numRounds = 6, tree = RegressionTree.Params(minSamplesLeaf = 2))
    val m = GBDT.train(x, y, params)
    sameRaw(m, oracleModel(x, y, params), x)
    assert(x.indices.count(i => m.predictLabel(x(i)) == y(i)) > 0.9 * x.length)
  }

  test("a single class trains single-leaf trees that predict it") {
    val (x, _) = blobs(20, 12)
    val m = GBDT.train(x, Array.fill(20)("only"), GBDT.Params(numRounds = 3))
    assert(m.classes.toSeq == Seq("only"))
    assert(m.trees.flatten.forall(_.numLeaves == 1))
    x.foreach { xi =>
      assert(m.predictLabel(xi) == "only")
      assert(m.predictProba(xi).toSeq == Seq(1.0))
    }
  }

  test("all-constant features give single-leaf trees") {
    val x = Array.fill(30)(Array(1.0, 0.0, -2.0))
    val y = Array.tabulate(30)(i => s"c${i % 3}")
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 4, tree = RegressionTree.Params(minSamplesLeaf = 1)))
    assert(m.trees.flatten.forall(_.numLeaves == 1))
  }

  test("fewer than 2 * minSamplesLeaf rows give single-leaf trees") {
    val (x, y) = blobs(9, 13)
    val m = GBDT.train(x, y, GBDT.Params(numRounds = 4, tree = RegressionTree.Params(minSamplesLeaf = 5)))
    assert(m.trees.flatten.forall(_.numLeaves == 1))
  }

  test("rows of differing width are rejected with their count") {
    val (x, y) = blobs(12, 14)
    x(3) = Array(1.0)
    x(7) = Array(1.0, 2.0, 3.0)
    val e = intercept[IllegalArgumentException](GBDT.train(x, y))
    assert(e.getMessage.contains("2 training rows differ in width from row 0 (2 features)"), e.getMessage)
  }

  test("NaN and infinite features are rejected with their count") {
    val (x, y) = blobs(12, 15)
    x(2)(1) = Double.NaN
    x(5)(0) = Double.PositiveInfinity
    x(9)(1) = Double.NegativeInfinity
    val e = intercept[IllegalArgumentException](GBDT.train(x, y))
    assert(e.getMessage.contains("3 training rows hold a NaN or infinite feature"), e.getMessage)
  }
}
