package repro.ml

import scala.util.Random

/** Test oracle for `LogisticRegression.train`: the epoch loop as it was
  * before it reused its buffers, allocating the gradient arrays every epoch
  * and the logit, exponential and probability arrays for every sample. The
  * rewrite keeps every sum in the same order, so the two models must be
  * bitwise equal. */
object LogisticRegressionOracle {

  def train(x: Array[Array[Double]], y: Array[String],
            params: LogisticRegression.Params = LogisticRegression.Params()): LogisticRegression.Model = {
    require(x.length == y.length && x.nonEmpty, "empty or mismatched training data")
    val classes = y.distinct.sorted
    val k = classes.length
    val d = x(0).length
    val n = x.length
    val yi = y.map(classes.zipWithIndex.toMap)

    // standardization statistics
    val mean = new Array[Double](d)
    val std = new Array[Double](d)
    x.foreach { xi => var j = 0; while (j < d) { mean(j) += xi(j); j += 1 } }
    var j = 0
    while (j < d) { mean(j) /= n; j += 1 }
    x.foreach { xi => var j2 = 0; while (j2 < d) { val v = xi(j2) - mean(j2); std(j2) += v * v; j2 += 1 } }
    j = 0
    while (j < d) { std(j) = math.max(math.sqrt(std(j) / n), 1e-8); j += 1 }

    val xs = x.map { xi => Array.tabulate(d)(j => (xi(j) - mean(j)) / std(j)) }

    val rng = new Random(params.seed)
    val w = Array.fill(k, d)(rng.nextGaussian() * 0.01)
    val b = new Array[Double](k)
    // Adam state
    val mw = Array.fill(k, d)(0.0); val vw = Array.fill(k, d)(0.0)
    val mb = new Array[Double](k); val vb = new Array[Double](k)
    val beta1 = 0.9; val beta2 = 0.999; val eps = 1e-8

    var epoch = 0
    var t = 0
    while (epoch < params.epochs) {
      val gw = Array.fill(k, d)(0.0)
      val gb = new Array[Double](k)
      var i = 0
      while (i < n) {
        val p = predictStd(xs(i), w, b)
        var c = 0
        while (c < k) {
          val err = p(c) - (if (yi(i) == c) 1.0 else 0.0)
          gb(c) += err
          var j3 = 0
          while (j3 < d) { gw(c)(j3) += err * xs(i)(j3); j3 += 1 }
          c += 1
        }
        i += 1
      }
      t += 1
      val bc1 = 1.0 - math.pow(beta1, t)
      val bc2 = 1.0 - math.pow(beta2, t)
      var c = 0
      while (c < k) {
        var j4 = 0
        while (j4 < d) {
          val g = gw(c)(j4) / n + params.l2 * w(c)(j4)
          mw(c)(j4) = beta1 * mw(c)(j4) + (1 - beta1) * g
          vw(c)(j4) = beta2 * vw(c)(j4) + (1 - beta2) * g * g
          w(c)(j4) -= params.learningRate * (mw(c)(j4) / bc1) / (math.sqrt(vw(c)(j4) / bc2) + eps)
          j4 += 1
        }
        val g = gb(c) / n
        mb(c) = beta1 * mb(c) + (1 - beta1) * g
        vb(c) = beta2 * vb(c) + (1 - beta2) * g * g
        b(c) -= params.learningRate * (mb(c) / bc1) / (math.sqrt(vb(c) / bc2) + eps)
        c += 1
      }
      epoch += 1
    }
    new LogisticRegression.Model(classes, w, b, mean, std)
  }

  /** The model's probabilities through the old allocating softmax. */
  def predictProba(m: LogisticRegression.Model, xi: Array[Double]): Array[Double] =
    predictStd(Array.tabulate(xi.length)(j => (xi(j) - m.mean(j)) / m.std(j)), m.w, m.b)

  private def predictStd(xi: Array[Double], w: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val k = w.length
    val z = new Array[Double](k)
    var c = 0
    while (c < k) {
      var s = b(c)
      var j = 0
      while (j < xi.length) { s += w(c)(j) * xi(j); j += 1 }
      z(c) = s
      c += 1
    }
    val mx = z.max
    val e = z.map(v => math.exp(v - mx))
    val sum = e.sum
    e.map(_ / sum)
  }
}
