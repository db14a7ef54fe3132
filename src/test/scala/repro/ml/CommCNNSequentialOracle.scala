package repro.ml

import scala.util.Random

/** Test oracle: CommCNN training with every minibatch gradient summed on one
  * thread, sample after sample, into a single buffer. `CommCNN.train` sums
  * the same per-sample gradients over fixed shards, so the two differ only
  * in summation order. */
object CommCNNSequentialOracle {
  import CommCNN._

  def train(xs: Array[Array[Double]], k: Int, d: Int, labels: Array[Int],
            classes: Array[String], cfg: Config): Model = {
    val net = new Network(k, d, classes.length, cfg)
    val adam = new Adam(net, cfg.learningRate)
    val tensors = xs.map(net.input)
    val idx = Array.tabulate(xs.length)(identity)
    val rng = new Random(cfg.seed + 1)
    (0 until cfg.epochs).foreach { _ =>
      var i = idx.length - 1
      while (i > 0) {
        val j = rng.nextInt(i + 1)
        val t = idx(i); idx(i) = idx(j); idx(j) = t
        i -= 1
      }
      idx.indices.grouped(cfg.batchSize).foreach { batch =>
        val grads = net.newGrads()
        batch.foreach(b => net.lossAndBackward(tensors(idx(b)), labels(idx(b)), grads))
        adam.step(grads, batch.length)
      }
    }
    new Model(net, classes)
  }
}
