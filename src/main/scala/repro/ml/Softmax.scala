package repro.ml

/** The softmax of every model in this package: GBDT, CommCNN and the
  * logistic regression. */
private[ml] object Softmax {

  /** Overwrites the scores `z` with softmax(z) and returns `z`: the largest
    * score m, then exp(z_c − m) for each class, their sum taken in class
    * order, and each exp divided by that sum. */
  def inPlace(z: Array[Double]): Array[Double] = {
    var mx = z(0)
    var c = 1
    while (c < z.length) { if (z(c) > mx) mx = z(c); c += 1 }
    var sum = 0.0
    c = 0
    while (c < z.length) { z(c) = math.exp(z(c) - mx); sum += z(c); c += 1 }
    c = 0
    while (c < z.length) { z(c) /= sum; c += 1 }
    z
  }
}
