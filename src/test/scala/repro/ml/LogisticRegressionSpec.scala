package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LogisticRegressionSpec extends AnyFunSuite {

  private def linearData(n: Int, seed: Int): (Array[Array[Double]], Array[String]) = {
    val rng = new Random(seed)
    val x = Array.tabulate(n)(_ => Array(rng.nextGaussian(), rng.nextGaussian()))
    val y = x.map(xi => if (xi(0) + xi(1) > 0) "pos" else "neg")
    (x, y)
  }

  test("linearly separable data is fit accurately") {
    val (x, y) = linearData(200, 0)
    val m = LogisticRegression.train(x, y)
    val acc = x.zip(y).count { case (xi, yi) => m.predictLabel(xi) == yi }.toDouble / x.length
    assert(acc > 0.95, s"accuracy $acc")
  }

  test("probabilities sum to one") {
    val (x, y) = linearData(50, 1)
    val m = LogisticRegression.train(x, y)
    assert(math.abs(m.predictProba(x(0)).sum - 1.0) < 1e-9)
  }

  test("three classes are handled") {
    val rng = new Random(2)
    val centers = Array((0.0, 0.0), (5.0, 0.0), (0.0, 5.0))
    val x = Array.tabulate(150) { i =>
      val c = centers(i % 3)
      Array(c._1 + rng.nextGaussian() * 0.4, c._2 + rng.nextGaussian() * 0.4)
    }
    val y = Array.tabulate(150)(i => s"c${i % 3}")
    val m = LogisticRegression.train(x, y)
    val acc = x.zip(y).count { case (xi, yi) => m.predictLabel(xi) == yi }.toDouble / x.length
    assert(acc > 0.95)
  }

  test("classes are sorted") {
    val (x, y) = linearData(40, 3)
    assert(LogisticRegression.train(x, y).classes.toSeq == Seq("neg", "pos"))
  }

  test("unscaled features are handled via internal standardization") {
    val rng = new Random(4)
    val x = Array.tabulate(200)(_ => Array(rng.nextGaussian() * 1000 + 5000, rng.nextGaussian() * 0.001))
    val y = x.map(xi => if (xi(0) > 5000) "hi" else "lo")
    val m = LogisticRegression.train(x, y)
    val acc = x.zip(y).count { case (xi, yi) => m.predictLabel(xi) == yi }.toDouble / x.length
    assert(acc > 0.9)
  }

  test("constant feature column does not blow up") {
    val x = Array.tabulate(40)(i => Array(1.0, if (i % 2 == 0) 0.0 else 1.0))
    val y = x.map(xi => if (xi(1) == 0.0) "a" else "b")
    val m = LogisticRegression.train(x, y)
    assert(m.predictLabel(Array(1.0, 0.0)) == "a")
    assert(m.predictLabel(Array(1.0, 1.0)) == "b")
  }

  test("training is deterministic") {
    val (x, y) = linearData(60, 5)
    val a = LogisticRegression.train(x, y).predictProba(x(0))
    val b = LogisticRegression.train(x, y).predictProba(x(0))
    assert(a.toSeq == b.toSeq)
  }

  test("stronger L2 pulls probabilities toward uniform") {
    val (x, y) = linearData(100, 6)
    val weak = LogisticRegression.train(x, y, LogisticRegression.Params(l2 = 1e-6))
    val strong = LogisticRegression.train(x, y, LogisticRegression.Params(l2 = 10.0))
    val pw = weak.predictProba(Array(3.0, 3.0)).max
    val ps = strong.predictProba(Array(3.0, 3.0)).max
    assert(ps < pw)
  }

  test("empty training data throws") {
    intercept[IllegalArgumentException] {
      LogisticRegression.train(Array.empty, Array.empty)
    }
  }

  test("train equals the allocating oracle bitwise: weights, biases and probabilities") {
    def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
    // (samples, features, classes, params): two-class through Eq. 4's 8 x 3
    // shape, a constant column, and the default and a short, strong-L2 fit
    val shapes = Seq(
      (40, 2, 2, LogisticRegression.Params()),
      (300, 8, 3, LogisticRegression.Params()),
      (120, 5, 4, LogisticRegression.Params(epochs = 50, learningRate = 0.2, l2 = 1.0, seed = 3)),
      (1, 3, 1, LogisticRegression.Params(epochs = 10)))
    for (seed <- 0 until 3; (n, d, k, params) <- shapes) {
      val rng = new Random(seed)
      val x = Array.tabulate(n)(i => Array.tabulate(d)(j => if (j == 1) 2.5 else rng.nextGaussian() * (j + 1) + i % k))
      val y = Array.tabulate(n)(i => s"c${(i + rng.nextInt(2)) % k}")
      val got = LogisticRegression.train(x, y, params)
      val want = LogisticRegressionOracle.train(x, y, params)
      val id = (seed, n, d, k)
      assert(got.classes.toSeq == want.classes.toSeq, id)
      assert(got.w.map(bits).toSeq == want.w.map(bits).toSeq, id)
      assert(bits(got.b) == bits(want.b), id)
      assert(bits(got.mean) == bits(want.mean) && bits(got.std) == bits(want.std), id)
      val probes = x.take(20) ++ Array.fill(5)(Array.fill(d)(rng.nextGaussian() * 10))
      probes.foreach { xi =>
        assert(bits(got.predictProba(xi)) == bits(LogisticRegressionOracle.predictProba(want, xi)), id)
      }
    }
  }

  test("model is java-serializable") {
    val (x, y) = linearData(40, 7)
    val m = LogisticRegression.train(x, y)
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(m)
    val m2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[LogisticRegression.Model]
    assert(m2.predictLabel(x(0)) == m.predictLabel(x(0)))
  }
}
