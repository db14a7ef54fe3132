package repro.ml

import scala.util.Random

/** Multinomial logistic regression — the Phase III combiner of LoCEC
  * (Eq. 4 features → edge label). Full-batch Adam on the softmax
  * cross-entropy with L2 regularization; features are standardized
  * internally so callers can pass raw tightness/probability vectors. */
object LogisticRegression {

  final case class Params(epochs: Int = 300, learningRate: Double = 0.05,
                          l2: Double = 1e-4, seed: Long = 7)

  def train(x: Array[Array[Double]], y: Array[String], params: Params = Params()): Model = {
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

    // gradient and probability buffers, reused by every epoch
    val gw = Array.ofDim[Double](k, d)
    val gb = new Array[Double](k)
    val p = new Array[Double](k)

    var epoch = 0
    var t = 0
    while (epoch < params.epochs) {
      gw.foreach(java.util.Arrays.fill(_, 0.0))
      java.util.Arrays.fill(gb, 0.0)
      var i = 0
      while (i < n) {
        softmaxInto(xs(i), w, b, p)
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
    new Model(classes, w, b, mean, std)
  }

  /** softmax(w·xi + b) of a standardized sample into `out`, every sum taken
    * in class, then feature, order. */
  private def softmaxInto(xi: Array[Double], w: Array[Array[Double]], b: Array[Double],
                          out: Array[Double]): Unit = {
    val k = w.length
    var c = 0
    while (c < k) {
      var s = b(c)
      var j = 0
      while (j < xi.length) { s += w(c)(j) * xi(j); j += 1 }
      out(c) = s
      c += 1
    }
    Softmax.inPlace(out)
  }

  /** A trained multinomial LR. Serializable for Spark broadcast. */
  final class Model(val classes: Array[String], private[ml] val w: Array[Array[Double]],
                    private[ml] val b: Array[Double], private[ml] val mean: Array[Double],
                    private[ml] val std: Array[Double]) extends Serializable {
    def predictProba(xi: Array[Double]): Array[Double] = {
      val xsi = Array.tabulate(xi.length)(j => (xi(j) - mean(j)) / std(j))
      val p = new Array[Double](w.length)
      softmaxInto(xsi, w, b, p)
      p
    }
    def predictLabel(xi: Array[Double]): String = {
      val p = predictProba(xi)
      classes(p.indexOf(p.max))
    }
  }
}
