package repro.ml

/** Multiclass gradient-boosted decision trees with a softmax objective —
  * our from-scratch stand-in for the XGBoost library [Chen & Guestrin,
  * KDD'16], used both as the paper's edge-feature baseline and as the
  * community classifier of LoCEC-XGB.
  *
  * Each boosting round fits one regression tree per class on the softmax
  * gradients g_ik = p_ik − 1{y_i = k}, h_ik = p_ik (1 − p_ik).
  */
object GBDT {

  /** `tree` is handed to every `RegressionTree.fit` unchanged. */
  final case class Params(numRounds: Int = 40, learningRate: Double = 0.2,
                          tree: RegressionTree.Params = RegressionTree.Params())

  /** Train on dense rows `x` with string labels `y`. */
  def train(x: Array[Array[Double]], y: Array[String], params: Params = Params()): Model = {
    require(x.length == y.length && x.nonEmpty, "empty or mismatched training data")
    val width = x(0).length
    val ragged = x.count(_.length != width)
    require(ragged == 0, s"$ragged training rows differ in width from row 0 ($width features)")
    val nonFinite = x.count(_.exists(v => v.isNaN || v.isInfinite))
    require(nonFinite == 0, s"$nonFinite training rows hold a NaN or infinite feature")
    val classes = y.distinct.sorted
    val k = classes.length
    val classIdx = classes.zipWithIndex.toMap
    val yi = y.map(classIdx)
    val n = x.length
    val sorted = RegressionTree.presort(x, Array.tabulate(n)(identity))

    val scores = Array.fill(n, k)(0.0)
    val trees = Array.newBuilder[Array[RegressionTree.Tree]]

    var round = 0
    while (round < params.numRounds) {
      // scores change only after the round: one softmax serves every class
      val probs = scores.map(s => Softmax.inPlace(s.clone()))
      val roundTrees = new Array[RegressionTree.Tree](k)
      var c = 0
      while (c < k) {
        val grad = new Array[Double](n)
        val hess = new Array[Double](n)
        var i = 0
        while (i < n) {
          val p = probs(i)(c)
          grad(i) = p - (if (yi(i) == c) 1.0 else 0.0)
          hess(i) = math.max(p * (1.0 - p), 1e-6)
          i += 1
        }
        roundTrees(c) = RegressionTree.fit(sorted, grad, hess, params.tree)
        c += 1
      }
      // update all class scores after the whole round (standard practice)
      var i = 0
      while (i < n) {
        var c2 = 0
        while (c2 < k) {
          scores(i)(c2) += params.learningRate * roundTrees(c2).predict(x(i))
          c2 += 1
        }
        i += 1
      }
      trees += roundTrees
      round += 1
    }
    new Model(classes, trees.result(), params.learningRate)
  }

  /** A trained multiclass GBDT. Serializable so Spark can broadcast it for
    * distributed inference. */
  final class Model(val classes: Array[String],
                    val trees: Array[Array[RegressionTree.Tree]],
                    val learningRate: Double) extends Serializable {
    def numClasses: Int = classes.length

    def predictRaw(xi: Array[Double]): Array[Double] = {
      val raw = new Array[Double](numClasses)
      trees.foreach { round =>
        var c = 0
        while (c < numClasses) { raw(c) += learningRate * round(c).predict(xi); c += 1 }
      }
      raw
    }

    def predictProba(xi: Array[Double]): Array[Double] = Softmax.inPlace(predictRaw(xi))

    def predictLabel(xi: Array[Double]): String = {
      val p = predictRaw(xi)
      classes(p.indexOf(p.max))
    }
  }
}
