package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CommCNNSpec extends AnyFunSuite {
  import CommCNN._

  private val smallCfg = Config(k = 6, d = 5, numClasses = 3, filters = 2, hidden = 4, seed = 3)

  private def randMat(k: Int, d: Int, seed: Int): Array[Array[Double]] = {
    val rng = new Random(seed)
    Array.fill(k, d)(rng.nextGaussian())
  }

  /** Three synthetic "community types" with distinct column patterns. */
  private def syntheticData(n: Int, k: Int, d: Int, seed: Int)
      : (Array[Array[Array[Double]]], Array[Int]) = {
    val rng = new Random(seed)
    val mats = Array.newBuilder[Array[Array[Double]]]
    val labels = Array.newBuilder[Int]
    (0 until n).foreach { i =>
      val c = i % 3
      val m = Array.tabulate(k, d) { (r, col) =>
        val signal = c match {
          case 0 => if (col < d / 2) 1.0 else 0.0       // left-heavy
          case 1 => if (col >= d / 2) 1.0 else 0.0      // right-heavy
          case _ => if (r % 2 == 0) 1.0 else 0.0        // row-striped
        }
        signal + rng.nextGaussian() * 0.1
      }
      mats += m
      labels += c
    }
    (mats.result(), labels.result())
  }

  private def meanLoss(model: Model, mats: Array[Array[Array[Double]]], labels: Array[Int]): Double =
    mats.indices.map(i => -math.log(math.max(model.predictProba(mats(i))(labels(i)), 1e-12))).sum /
      mats.length

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("toTensor round-trips values") {
    val m = randMat(4, 3, 0)
    val t = toTensor(m)
    assert(t.c == 1 && t.h == 4 && t.w == 3)
    (0 until 4).foreach(i => (0 until 3).foreach(j => assert(t(0, i, j) == m(i)(j))))
  }

  test("forwardLogits returns numClasses logits") {
    val net = new Network(smallCfg)
    val out = net.forwardLogits(toTensor(randMat(6, 5, 1)))
    assert(out.length == 3)
  }

  test("softmax output sums to one") {
    val net = new Network(smallCfg)
    val p = net.softmax(net.forwardLogits(toTensor(randMat(6, 5, 2))))
    assert(math.abs(p.sum - 1.0) < 1e-9)
    p.foreach(v => assert(v > 0 && v < 1))
  }

  test("path outLen bookkeeping matches actual forward output") {
    val net = new Network(smallCfg)
    val x = toTensor(randMat(6, 5, 3))
    Seq(net.wide, net.long, net.square).foreach { path =>
      val acts = path.activations(x)
      assert(acts.length == path.layers.length + 1 && (acts.head eq x))
      assert(acts.last.size == path.outLen)
    }
  }

  test("default paper config (k=20, d=9) builds and runs") {
    val cfg = Config(k = 20, d = 9, numClasses = 3, filters = 8, hidden = 32, seed = 4)
    val net = new Network(cfg)
    assert(net.forwardLogits(toTensor(randMat(20, 9, 5))).length == 3)
  }

  test("numerical gradient check on all parameter arrays") {
    // k=20, d=9 gives the square path a real 2x2 max pool
    Seq(smallCfg, smallCfg.copy(k = 20, d = 9)).foreach(gradientCheck)
  }

  private def gradientCheck(cfg: Config): Unit = {
    val net = new Network(cfg)
    // Biases start at exactly 0, so a unit whose inputs the previous ReLU
    // zeroed sits on its own ReLU's kink, where central differences are not
    // the gradient. Jittered biases put the check at a generic point.
    val jitter = new Random(8)
    (Seq(net.wide, net.long, net.square).flatMap(_.layers).collect { case c: Conv2D => c.bias } ++
      Seq(net.fc1.bias, net.fc2.bias)).foreach(b => b.indices.foreach(i => b(i) = 0.1 * jitter.nextGaussian()))
    val x = toTensor(randMat(cfg.k, cfg.d, 6))
    val label = 1
    def loss(): Double = {
      val p = net.softmax(net.forwardLogits(x))
      -math.log(math.max(p(label), 1e-12))
    }
    net.zeroGrads()
    net.lossAndBackward(x, label)
    val analytic = net.gradArrays.map(_.clone())
    val eps = 1e-6
    val rng = new Random(7)
    net.paramArrays.zipWithIndex.foreach { case (p, ai) =>
      // sample a few indices per array
      val indices = (0 until math.min(5, p.length)).map(_ => rng.nextInt(p.length)).distinct
      indices.foreach { i =>
        val orig = p(i)
        p(i) = orig + eps
        val lp = loss()
        p(i) = orig - eps
        val lm = loss()
        p(i) = orig
        val num = (lp - lm) / (2 * eps)
        val ana = analytic(ai)(i)
        val denom = math.max(1e-4, math.abs(num) + math.abs(ana))
        assert(math.abs(num - ana) / denom < 1e-3,
          s"k=${cfg.k} d=${cfg.d} array $ai idx $i: numeric=$num analytic=$ana")
      }
    }
  }

  test("training reduces mean loss") {
    val (mats, labels) = syntheticData(30, 6, 5, 8)
    val classes = Array("a", "b", "c")
    val m1 = CommCNN.train(mats, labels, classes, smallCfg.copy(epochs = 1))
    val m30 = CommCNN.train(mats, labels, classes, smallCfg.copy(epochs = 30))
    assert(meanLoss(m30, mats, labels) < meanLoss(m1, mats, labels))
  }

  test("overfits a small separable dataset") {
    val (mats, labels) = syntheticData(30, 6, 5, 9)
    val m = CommCNN.train(mats, labels, Array("a", "b", "c"),
      smallCfg.copy(filters = 4, hidden = 16, epochs = 150, learningRate = 1e-2))
    val acc = mats.zip(labels).count { case (mat, l) =>
      m.predictProba(mat).zipWithIndex.maxBy(_._1)._2 == l
    }.toDouble / mats.length
    assert(acc > 0.9, s"train accuracy $acc")
  }

  test("generalizes to held-out synthetic samples") {
    val (trainM, trainL) = syntheticData(60, 6, 5, 10)
    val (testM, testL) = syntheticData(30, 6, 5, 11)
    val m = CommCNN.train(trainM, trainL, Array("a", "b", "c"),
      smallCfg.copy(filters = 4, hidden = 16, epochs = 150, learningRate = 1e-2))
    val acc = testM.zip(testL).count { case (mat, l) =>
      m.predictProba(mat).zipWithIndex.maxBy(_._1)._2 == l
    }.toDouble / testM.length
    assert(acc > 0.8, s"test accuracy $acc")
  }

  test("training is deterministic in the seed") {
    val (mats, labels) = syntheticData(20, 6, 5, 12)
    val a = CommCNN.train(mats, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 3))
    val b = CommCNN.train(mats, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 3))
    assert(a.predictProba(mats(0)).toSeq == b.predictProba(mats(0)).toSeq)
  }

  test("zero-padded rows (empty communities) are accepted") {
    val m = Array.fill(6, 5)(0.0)
    val net = new Network(smallCfg)
    val out = net.forwardLogits(toTensor(m))
    assert(out.length == 3 && out.forall(v => !v.isNaN))
  }

  test("one trained model shared by 8 threads predicts bitwise as a sequential run") {
    val (mats, labels) = syntheticData(60, 20, 9, 14)
    val m = CommCNN.train(mats, labels, Array("a", "b", "c"),
      smallCfg.copy(k = 20, d = 9, epochs = 2))
    val sequential = mats.toSeq.map(mat => bits(m.predictProba(mat)))
    val results = new Array[Seq[Seq[Long]]](8)
    val start = new java.util.concurrent.CountDownLatch(1)
    val threads = (0 until 8).map { t =>
      new Thread(() => {
        start.await()
        // each thread starts at a different sample, so the threads overlap
        val order = mats.indices.map(i => (i + t * 7) % mats.length)
        val out = new Array[Seq[Long]](mats.length)
        order.foreach(i => out(i) = bits(m.predictProba(mats(i))))
        results(t) = out.toSeq
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    results.zipWithIndex.foreach { case (r, t) => assert(r == sequential, s"thread $t") }
  }

  test("model survives java serialization") {
    val (mats, labels) = syntheticData(12, 6, 5, 15)
    val m = CommCNN.train(mats, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 2))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(m)
    val m2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[Model]
    assert(m2.predictProba(mats(0)).toSeq == m.predictProba(mats(0)).toSeq)
  }

  test("k or d below the minimum throws") {
    intercept[IllegalArgumentException] {
      new Network(Config(k = 3, d = 9))
    }
    intercept[IllegalArgumentException] {
      new Network(Config(k = 20, d = 4))
    }
  }

  test("MaxPool floor semantics drop trailing rows") {
    val mp = new MaxPool(2, 2)
    val x = new Tensor3(1, 5, 5)
    (0 until 5).foreach(i => (0 until 5).foreach(j => x(0, i, j) = i * 5.0 + j))
    val out = mp.forward(x)
    assert(out.h == 2 && out.w == 2)
    assert(out(0, 0, 0) == 6.0) // max of rows 0-1, cols 0-1
  }

  test("GlobalMaxPool picks the per-channel maximum") {
    val g = new GlobalMaxPool
    val x = new Tensor3(2, 2, 2)
    x(0, 1, 1) = 5.0
    x(1, 0, 0) = -1.0
    x(1, 0, 1) = -0.5
    x(1, 1, 0) = -2.0
    x(1, 1, 1) = -3.0
    val out = g.forward(x)
    assert(out(0, 0, 0) == 5.0)
    assert(out(1, 0, 0) == -0.5)
  }
}
