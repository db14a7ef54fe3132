package repro.ml

import java.util.concurrent.{Callable, ForkJoinPool}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CommCNNSpec extends AnyFunSuite {
  import CommCNN._

  private val smallCfg = Config(filters = 2, hidden = 4, seed = 3)

  /** A 6 × 5 network for three classes. */
  private def smallNet(): Network = new Network(6, 5, 3, smallCfg)

  /** A row-major k × d matrix of N(0,1) draws. */
  private def randMat(k: Int, d: Int, seed: Int): Array[Double] = {
    val rng = new Random(seed)
    Array.fill(k * d)(rng.nextGaussian())
  }

  /** Three synthetic "community types" with distinct column patterns, as
    * row-major k × d matrices. */
  private def syntheticData(n: Int, k: Int, d: Int, seed: Int)
      : (Array[Array[Double]], Array[Int]) = {
    val rng = new Random(seed)
    val mats = Array.newBuilder[Array[Double]]
    val labels = Array.newBuilder[Int]
    (0 until n).foreach { i =>
      val c = i % 3
      val m = Array.tabulate(k * d) { rc =>
        val (r, col) = (rc / d, rc % d)
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

  private def meanLoss(model: Model, mats: Array[Array[Double]], labels: Array[Int]): Double =
    mats.indices.map(i => -math.log(math.max(model.predictProba(mats(i))(labels(i)), 1e-12))).sum /
      mats.length

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def paramBits(m: Model): Seq[Seq[Long]] = m.net.paramArrays.map(bits)

  /** Run `body` as a task of a fresh ForkJoin pool with `threads` workers,
    * so the training's parallel stream runs on that pool. */
  private def inPool[T](threads: Int)(body: => T): T = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[T] { def call(): T = body }).get()
    finally pool.shutdown()
  }

  /** Sets every bias to 0.1·N(0,1) (seed 8). Biases start at exactly 0, so a
    * unit whose inputs the previous ReLU zeroed sits on its own ReLU's kink;
    * jittered biases move the network to a generic point. */
  private def jitterBiases(net: Network): Unit = {
    val jitter = new Random(8)
    (Seq(net.wide, net.long, net.square).flatMap(_.layers).collect { case c: Conv2D => c.bias } ++
      Seq(net.fc1.bias, net.fc2.bias)).foreach(b => b.indices.foreach(i => b(i) = 0.1 * jitter.nextGaussian()))
  }

  test("forwardLogits returns numClasses logits") {
    val net = smallNet()
    val out = net.forwardLogits(net.input(randMat(6, 5, 1)))
    assert(out.length == 3)
  }

  test("softmax output sums to one") {
    val net = smallNet()
    val p = Softmax.inPlace(net.forwardLogits(net.input(randMat(6, 5, 2))))
    assert(math.abs(p.sum - 1.0) < 1e-9)
    p.foreach(v => assert(v > 0 && v < 1))
  }

  test("path outLen bookkeeping matches actual forward output") {
    val net = smallNet()
    val x = net.input(randMat(6, 5, 3))
    Seq(net.wide, net.long, net.square).foreach { path =>
      val acts = path.activations(x)
      assert(acts.length == path.layers.length + 1 && (acts.head eq x))
      assert(acts.last.size == path.outLen)
    }
  }

  test("default paper config (k=20, d=9) builds and runs") {
    val net = new Network(20, 9, 3, Config(filters = 8, hidden = 32, seed = 4))
    assert(net.forwardLogits(net.input(randMat(20, 9, 5))).length == 3)
  }

  test("numerical gradient check on all parameter arrays") {
    // k=20, d=9 gives the square path a real 2x2 max pool
    Seq(smallNet(), new Network(20, 9, 3, smallCfg)).foreach(gradientCheck)
  }

  private def gradientCheck(net: Network): Unit = {
    // at a ReLU kink central differences are not the gradient
    jitterBiases(net)
    val x = net.input(randMat(net.k, net.d, 6))
    val label = 1
    def loss(): Double = {
      val p = Softmax.inPlace(net.forwardLogits(x))
      -math.log(math.max(p(label), 1e-12))
    }
    val analytic = net.newGrads()
    net.lossAndBackward(x, label, analytic)
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
          s"k=${net.k} d=${net.d} array $ai idx $i: numeric=$num analytic=$ana")
      }
    }
  }

  test("lossAndBackward adds into the buffer it is given and leaves the weights alone") {
    val net = smallNet()
    val x = net.input(randMat(6, 5, 16))
    val weights = net.paramArrays.map(bits)
    val once = net.newGrads()
    net.lossAndBackward(x, 2, once)
    val twice = net.newGrads()
    net.lossAndBackward(x, 2, twice)
    net.lossAndBackward(x, 2, twice)
    once.zip(twice).foreach { case (g1, g2) =>
      g1.indices.foreach(i => assert(g2(i) == 2 * g1(i)))
    }
    assert(once.exists(_.exists(_ != 0.0)))
    assert(net.paramArrays.map(bits) == weights)
  }

  test("predictProba is bitwise unchanged for fixed weights") {
    // Recorded when the layers still held their own gradient arrays:
    // inference must not depend on where training keeps its gradients.
    val expected = Seq(
      (6, 5, Config(filters = 2, hidden = 4, seed = 3)) -> Seq(
        Seq(0x3f65ddb4fc3e0472L, 0x3feef20e9e765e71L, 0x3f9f027591ac7130L),
        Seq(0x3e611da28e09badcL, 0x3fefff9e812e059fL, 0x3f085b6d15f4ceffL),
        Seq(0x3eb5b88dc8210e41L, 0x3feffc6f15fee36eL, 0x3f3c71977b1c7333L),
        Seq(0x3fd0a08b4e669d31L, 0x3fdbc2b8fd67bc6fL, 0x3fd39cbbb431a65fL)),
      (20, 9, Config(seed = 4)) -> Seq(
        Seq(0x3fc862621035c3c9L, 0x3fe9d1d9a949a68aL, 0x3f658dd2a8e88353L),
        Seq(0x3fe1bc40f96728c3L, 0x3fdbcea0bfc76f51L, 0x3f871ba9ad47e574L),
        Seq(0x3fdd6dc75f608a76L, 0x3fe11a486b3aef16L, 0x3f7769f28a65d778L),
        Seq(0x3fd6af89db3700f7L, 0x3fd3635de9d66f18L, 0x3fd5ed183af28ff1L)))
    expected.foreach { case ((k, d, cfg), want) =>
      val net = new Network(k, d, 3, cfg)
      jitterBiases(net)
      val m = new Model(net, Array("a", "b", "c"))
      val rng = new Random(21)
      val mats = Seq.fill(3)(Array.fill(k * d)(rng.nextGaussian())) :+ Array.fill(k * d)(0.0)
      assert(mats.map(mat => bits(m.predictProba(mat))) == want, s"k=$k d=$d")
    }
  }

  test("train and predictProba leave their input arrays bitwise unchanged") {
    // the network wraps each input array without a copy, so nothing may
    // write to it
    val (mats, labels) = syntheticData(20, 6, 5, 22)
    val before = mats.toSeq.map(bits)
    val m = CommCNN.train(mats, 6, 5, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 2))
    assert(mats.toSeq.map(bits) == before)
    mats.foreach(m.predictProba)
    assert(mats.toSeq.map(bits) == before)
  }

  test("predictProba and train reject an array that is not k·d long, naming both sizes") {
    val (mats, labels) = syntheticData(6, 6, 5, 23)
    val m = CommCNN.train(mats, 6, 5, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 1))
    Seq(29, 31, 0).foreach { n =>
      val e = intercept[IllegalArgumentException](m.predictProba(new Array[Double](n)))
      assert(e.getMessage.contains(s"has $n values, expected k·d = 6·5 = 30"), e.getMessage)
    }
    val e = intercept[IllegalArgumentException] {
      CommCNN.train(mats :+ new Array[Double](20), 6, 5, labels :+ 0, Array("a", "b", "c"), smallCfg)
    }
    assert(e.getMessage.contains("has 20 values, expected k·d = 6·5 = 30"), e.getMessage)
  }

  test("the shard-reduced minibatch gradient equals the sequential per-sample sum") {
    val (mats, labels) = syntheticData(37, 20, 9, 17)
    val net = new Network(20, 9, 3, smallCfg)
    val xs = mats.map(net.input)
    val order = Array.tabulate(mats.length)(i => (i * 11) % mats.length)
    jitterBiases(net)
    Seq((0, 37), (2, 35), (5, 8), (9, 10)).foreach { case (start, end) =>
      val sharded = new ShardedGradient(net)(xs, labels, order, start, end)
      val sequential = net.newGrads()
      (start until end).foreach(i => net.lossAndBackward(xs(order(i)), labels(order(i)), sequential))
      sharded.zip(sequential).zipWithIndex.foreach { case ((a, b), ai) =>
        val scale = b.map(math.abs).max
        val err = a.indices.map(i => math.abs(a(i) - b(i))).max
        assert(err <= 1e-12 * scale, s"batch [$start, $end) array $ai: max error $err, scale $scale")
      }
    }
  }

  test("trained parameters are bitwise identical in 1-worker and 4-worker ForkJoin pools") {
    val (mats, labels) = syntheticData(70, 20, 9, 18)
    val cfg = smallCfg.copy(filters = 4, hidden = 8, epochs = 2)
    val one = paramBits(inPool(1)(CommCNN.train(mats, 20, 9, labels, Array("a", "b", "c"), cfg)))
    val four = paramBits(inPool(4)(CommCNN.train(mats, 20, 9, labels, Array("a", "b", "c"), cfg)))
    val common = paramBits(CommCNN.train(mats, 20, 9, labels, Array("a", "b", "c"), cfg))
    assert(one == four)
    assert(one == common)
  }

  test("batch sizes that are not a multiple of 8, and fewer samples than shards, train as sequentially") {
    val classes = Array("a", "b", "c")
    Seq(40 -> 1, 40 -> 3, 40 -> 7, 40 -> 33, 5 -> 32, 5 -> 3).foreach { case (n, batch) =>
      val (mats, labels) = syntheticData(n, 6, 5, 19)
      val cfg = smallCfg.copy(batchSize = batch, epochs = 3)
      val sharded = inPool(4)(CommCNN.train(mats, 6, 5, labels, classes, cfg))
      assert(paramBits(sharded) == paramBits(inPool(1)(CommCNN.train(mats, 6, 5, labels, classes, cfg))),
        s"n=$n batch=$batch")
      val sequential = CommCNNSequentialOracle.train(mats, 6, 5, labels, classes, cfg)
      sharded.net.paramArrays.zip(sequential.net.paramArrays).zipWithIndex.foreach { case ((a, b), ai) =>
        a.indices.foreach { i =>
          assert(math.abs(a(i) - b(i)) <= 1e-9, s"n=$n batch=$batch array $ai idx $i: ${a(i)} vs ${b(i)}")
        }
      }
    }
  }

  test("training reduces mean loss") {
    val (mats, labels) = syntheticData(30, 6, 5, 8)
    val classes = Array("a", "b", "c")
    val m1 = CommCNN.train(mats, 6, 5, labels, classes, smallCfg.copy(epochs = 1))
    val m30 = CommCNN.train(mats, 6, 5, labels, classes, smallCfg.copy(epochs = 30))
    assert(meanLoss(m30, mats, labels) < meanLoss(m1, mats, labels))
  }

  test("overfits a small separable dataset") {
    val (mats, labels) = syntheticData(30, 6, 5, 9)
    val m = CommCNN.train(mats, 6, 5, labels, Array("a", "b", "c"),
      smallCfg.copy(filters = 4, hidden = 16, epochs = 150, learningRate = 1e-2))
    val acc = mats.zip(labels).count { case (mat, l) =>
      m.predictProba(mat).zipWithIndex.maxBy(_._1)._2 == l
    }.toDouble / mats.length
    assert(acc > 0.9, s"train accuracy $acc")
  }

  test("generalizes to held-out synthetic samples") {
    val (trainM, trainL) = syntheticData(60, 6, 5, 10)
    val (testM, testL) = syntheticData(30, 6, 5, 11)
    val m = CommCNN.train(trainM, 6, 5, trainL, Array("a", "b", "c"),
      smallCfg.copy(filters = 4, hidden = 16, epochs = 150, learningRate = 1e-2))
    val acc = testM.zip(testL).count { case (mat, l) =>
      m.predictProba(mat).zipWithIndex.maxBy(_._1)._2 == l
    }.toDouble / testM.length
    assert(acc > 0.8, s"test accuracy $acc")
  }

  test("training is deterministic in the seed") {
    val (mats, labels) = syntheticData(20, 6, 5, 12)
    val a = CommCNN.train(mats, 6, 5, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 3))
    val b = CommCNN.train(mats, 6, 5, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 3))
    assert(a.predictProba(mats(0)).toSeq == b.predictProba(mats(0)).toSeq)
  }

  test("zero-padded rows (empty communities) are accepted") {
    val net = smallNet()
    val out = net.forwardLogits(net.input(new Array[Double](6 * 5)))
    assert(out.length == 3 && out.forall(v => !v.isNaN))
  }

  test("one trained model shared by 8 threads predicts bitwise as a sequential run") {
    val (mats, labels) = syntheticData(60, 20, 9, 14)
    val m = CommCNN.train(mats, 20, 9, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 2))
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
    val m = CommCNN.train(mats, 6, 5, labels, Array("a", "b", "c"), smallCfg.copy(epochs = 2))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(m)
    val m2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[Model]
    assert(m2.predictProba(mats(0)).toSeq == m.predictProba(mats(0)).toSeq)
  }

  test("k or d below the minimum throws") {
    intercept[IllegalArgumentException] {
      new Network(3, 9, 3, Config())
    }
    intercept[IllegalArgumentException] {
      new Network(20, 4, 3, Config())
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
