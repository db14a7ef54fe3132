package repro.ml

import java.util.stream.IntStream
import scala.util.Random

/** CommCNN — the paper's community classification CNN (Section IV-B, Fig. 8),
  * implemented from scratch (no DL framework is available offline).
  *
  * Input is the k × (|I|+|f|) community feature matrix. Three convolution
  * paths process it:
  *   - square: 3×3 conv followed by two Square Convolution Modules
  *     (3×3 conv + max pool) — 7 layers total on this path;
  *   - wide:   1×d kernel (all features of one member jointly), then a 1×1
  *     conv and a global max pool — 3 layers;
  *   - long:   k×1 kernel (one feature across all members), then a 1×1
  *     conv and a global max pool — 3 layers.
  * The concatenated path outputs feed two fully connected layers and a
  * softmax. Training is minibatch Adam on softmax cross-entropy; each
  * minibatch gradient is summed over a fixed number of shards in a fixed
  * order (`ShardedGradient`), so the trained weights do not depend on the
  * number of threads.
  */
object CommCNN {

  /** Dense 3-D tensor (channels × height × width), row-major flat storage. */
  final class Tensor3(val c: Int, val h: Int, val w: Int,
                      val data: Array[Double]) extends Serializable {
    def this(c: Int, h: Int, w: Int) = this(c, h, w, new Array[Double](c * h * w))
    @inline def idx(ci: Int, hi: Int, wi: Int): Int = (ci * h + hi) * w + wi
    @inline def apply(ci: Int, hi: Int, wi: Int): Double = data(idx(ci, hi, wi))
    @inline def update(ci: Int, hi: Int, wi: Int, v: Double): Unit = data(idx(ci, hi, wi)) = v
    def size: Int = data.length
    def sameShape: Tensor3 = new Tensor3(c, h, w)
  }

  /** A differentiable layer over Tensor3s. A layer holds its weights and
    * nothing else: `forward` is pure, and `backward` is handed the input `x`
    * of the matching forward and adds the parameter gradients into a buffer
    * it does not own. */
  sealed trait Layer extends Serializable {
    def forward(x: Tensor3): Tensor3
    /** Gradient w.r.t. `x`, given the gradient w.r.t. `forward(x)`. Adds the
      * parameter gradients into `grads`, one array per entry of `params`. */
    def backward(x: Tensor3, gradOut: Tensor3, grads: IndexedSeq[Array[Double]]): Tensor3
    def params: IndexedSeq[Array[Double]] = IndexedSeq.empty
    def outShape(c: Int, h: Int, w: Int): (Int, Int, Int)
  }

  /** Valid 2-D convolution, `outC` filters of size inC × kh × kw. */
  final class Conv2D(inC: Int, outC: Int, kh: Int, kw: Int, rng: Random) extends Layer {
    val weight: Array[Double] = {
      val fanIn = inC * kh * kw
      Array.fill(outC * inC * kh * kw)(rng.nextGaussian() * math.sqrt(2.0 / fanIn))
    }
    val bias: Array[Double] = new Array[Double](outC)
    @inline private def wIdx(o: Int, i: Int, a: Int, b: Int): Int = ((o * inC + i) * kh + a) * kw + b

    override def params: IndexedSeq[Array[Double]] = IndexedSeq(weight, bias)
    override def outShape(c: Int, h: Int, w: Int): (Int, Int, Int) = (outC, h - kh + 1, w - kw + 1)

    def forward(x: Tensor3): Tensor3 = {
      require(x.c == inC && x.h >= kh && x.w >= kw,
        s"conv input ${x.c}x${x.h}x${x.w} vs kernel ${inC}x${kh}x$kw")
      val out = new Tensor3(outC, x.h - kh + 1, x.w - kw + 1)
      var o = 0
      while (o < outC) {
        var oh = 0
        while (oh < out.h) {
          var ow = 0
          while (ow < out.w) {
            var s = bias(o)
            var i = 0
            while (i < inC) {
              var a = 0
              while (a < kh) {
                var b = 0
                while (b < kw) {
                  s += weight(wIdx(o, i, a, b)) * x(i, oh + a, ow + b)
                  b += 1
                }
                a += 1
              }
              i += 1
            }
            out(o, oh, ow) = s
            ow += 1
          }
          oh += 1
        }
        o += 1
      }
      out
    }

    def backward(x: Tensor3, gradOut: Tensor3, grads: IndexedSeq[Array[Double]]): Tensor3 = {
      val wGrad = grads(0)
      val bGrad = grads(1)
      val gradIn = x.sameShape
      var o = 0
      while (o < outC) {
        var oh = 0
        while (oh < gradOut.h) {
          var ow = 0
          while (ow < gradOut.w) {
            val g = gradOut(o, oh, ow)
            if (g != 0.0) {
              bGrad(o) += g
              var i = 0
              while (i < inC) {
                var a = 0
                while (a < kh) {
                  var b = 0
                  while (b < kw) {
                    wGrad(wIdx(o, i, a, b)) += g * x(i, oh + a, ow + b)
                    gradIn(i, oh + a, ow + b) = gradIn(i, oh + a, ow + b) + g * weight(wIdx(o, i, a, b))
                    b += 1
                  }
                  a += 1
                }
                i += 1
              }
            }
            ow += 1
          }
          oh += 1
        }
        o += 1
      }
      gradIn
    }
  }

  /** Elementwise ReLU. */
  final class ReLU extends Layer {
    override def outShape(c: Int, h: Int, w: Int): (Int, Int, Int) = (c, h, w)
    def forward(x: Tensor3): Tensor3 = {
      val out = x.sameShape
      var i = 0
      while (i < x.size) { if (x.data(i) > 0) out.data(i) = x.data(i); i += 1 }
      out
    }
    def backward(x: Tensor3, gradOut: Tensor3, grads: IndexedSeq[Array[Double]]): Tensor3 = {
      val gradIn = gradOut.sameShape
      var i = 0
      while (i < gradOut.size) { if (x.data(i) > 0) gradIn.data(i) = gradOut.data(i); i += 1 }
      gradIn
    }
  }

  /** Flat index into `x` of the first maximum of channel `c` over rows
    * [h0, h1) and columns [w0, w1): a strict-greater scan from −∞, so ties go
    * to the first element in row-major order; −1 if no element exceeds −∞.
    * Pooling forward and backward both use it, so they pick the same
    * element. */
  private def windowArgmax(x: Tensor3, c: Int, h0: Int, h1: Int, w0: Int, w1: Int): Int = {
    var best = Double.NegativeInfinity
    var bestIdx = -1
    var h = h0
    while (h < h1) {
      var w = w0
      while (w < w1) {
        val v = x(c, h, w)
        if (v > best) { best = v; bestIdx = x.idx(c, h, w) }
        w += 1
      }
      h += 1
    }
    bestIdx
  }

  @inline private def valueAt(x: Tensor3, i: Int): Double =
    if (i < 0) Double.NegativeInfinity else x.data(i)

  /** Max pooling with kernel = stride = (ph, pw); trailing rows/cols that do
    * not fill a full window are dropped (floor semantics). */
  final class MaxPool(ph: Int, pw: Int) extends Layer {
    override def outShape(c: Int, h: Int, w: Int): (Int, Int, Int) = (c, h / ph, w / pw)
    private def argmax(x: Tensor3, c: Int, oh: Int, ow: Int): Int =
      windowArgmax(x, c, oh * ph, (oh + 1) * ph, ow * pw, (ow + 1) * pw)
    def forward(x: Tensor3): Tensor3 = {
      val out = new Tensor3(x.c, x.h / ph, x.w / pw)
      var c = 0
      while (c < out.c) {
        var oh = 0
        while (oh < out.h) {
          var ow = 0
          while (ow < out.w) { out(c, oh, ow) = valueAt(x, argmax(x, c, oh, ow)); ow += 1 }
          oh += 1
        }
        c += 1
      }
      out
    }
    def backward(x: Tensor3, gradOut: Tensor3, grads: IndexedSeq[Array[Double]]): Tensor3 = {
      val gradIn = x.sameShape
      var c = 0
      while (c < gradOut.c) {
        var oh = 0
        while (oh < gradOut.h) {
          var ow = 0
          while (ow < gradOut.w) {
            gradIn.data(argmax(x, c, oh, ow)) += gradOut(c, oh, ow)
            ow += 1
          }
          oh += 1
        }
        c += 1
      }
      gradIn
    }
  }

  /** Global max pooling: (c, h, w) → (c, 1, 1). */
  final class GlobalMaxPool extends Layer {
    override def outShape(c: Int, h: Int, w: Int): (Int, Int, Int) = (c, 1, 1)
    def forward(x: Tensor3): Tensor3 = {
      val out = new Tensor3(x.c, 1, 1)
      var c = 0
      while (c < x.c) { out(c, 0, 0) = valueAt(x, windowArgmax(x, c, 0, x.h, 0, x.w)); c += 1 }
      out
    }
    def backward(x: Tensor3, gradOut: Tensor3, grads: IndexedSeq[Array[Double]]): Tensor3 = {
      val gradIn = x.sameShape
      var c = 0
      while (c < gradOut.c) {
        gradIn.data(windowArgmax(x, c, 0, x.h, 0, x.w)) += gradOut(c, 0, 0)
        c += 1
      }
      gradIn
    }
  }

  /** Fully connected layer on flat vectors. */
  final class Dense(val in: Int, val out: Int, rng: Random) extends Serializable {
    val weight: Array[Double] = Array.fill(out * in)(rng.nextGaussian() * math.sqrt(2.0 / in))
    val bias: Array[Double] = new Array[Double](out)
    def params: IndexedSeq[Array[Double]] = IndexedSeq(weight, bias)

    def forward(x: Array[Double]): Array[Double] = {
      require(x.length == in, s"dense input ${x.length} vs $in")
      val y = new Array[Double](out)
      var o = 0
      while (o < out) {
        var s = bias(o)
        var i = 0
        while (i < in) { s += weight(o * in + i) * x(i); i += 1 }
        y(o) = s
        o += 1
      }
      y
    }

    /** Gradient w.r.t. `x`, the input of the matching forward. Adds the
      * parameter gradients into `grads`, aligned with `params`. */
    def backward(x: Array[Double], gradOut: Array[Double],
                 grads: IndexedSeq[Array[Double]]): Array[Double] = {
      val wGrad = grads(0)
      val bGrad = grads(1)
      val gradIn = new Array[Double](in)
      var o = 0
      while (o < out) {
        val g = gradOut(o)
        bGrad(o) += g
        var i = 0
        while (i < in) {
          wGrad(o * in + i) += g * x(i)
          gradIn(i) += g * weight(o * in + i)
          i += 1
        }
        o += 1
      }
      gradIn
    }
  }

  /** One convolution path: a layer sequence with shape bookkeeping. */
  final class Path(val layers: Seq[Layer], inC: Int, inH: Int, inW: Int) extends Serializable {
    /** flattened output length. */
    val outLen: Int = {
      var (c, h, w) = (inC, inH, inW)
      layers.foreach { l => val s = l.outShape(c, h, w); c = s._1; h = s._2; w = s._3 }
      c * h * w
    }
    def params: IndexedSeq[Array[Double]] = layers.toIndexedSeq.flatMap(_.params)
    /** `x` followed by every layer's output; the last one is the path output. */
    def activations(x: Tensor3): Array[Tensor3] = layers.scanLeft(x)((t, l) => l.forward(t)).toArray
    /** Backward through the path, given `activations(x)` and the gradient
      * w.r.t. the flattened path output. Adds the parameter gradients into
      * `grads`, aligned with `params`. */
    def backward(acts: Array[Tensor3], grad: Array[Double],
                 grads: IndexedSeq[Array[Double]]): Tensor3 = {
      val out = acts.last
      var g = new Tensor3(out.c, out.h, out.w, grad)
      var end = grads.length
      layers.zip(acts).reverseIterator.foreach { case (l, in) =>
        val start = end - l.params.length
        g = l.backward(in, g, grads.slice(start, end))
        end = start
      }
      g
    }
  }

  /** The hyper-parameters. The input shape k × d and the class count come
    * from the data the network is built for. */
  final case class Config(filters: Int = 8, hidden: Int = 32,
                          learningRate: Double = 1e-3, epochs: Int = 40,
                          batchSize: Int = 32, seed: Long = 17)

  /** The assembled network for k × d inputs and `numClasses` classes. It
    * holds the weights and nothing else: `forwardLogits` and
    * `lossAndBackward` only read them, so any number of threads may share
    * one network. Training writes only into gradient buffers (`newGrads`)
    * and, through `Adam.step` between minibatches, into the weights. */
  final class Network(val k: Int, val d: Int, val numClasses: Int, cfg: Config)
      extends Serializable {
    require(k >= 5 && d >= 5, s"CommCNN needs k>=5 and d>=5, got k=$k d=$d")
    private val rng = new Random(cfg.seed)
    val f: Int = cfg.filters

    // wide path: 1×d conv → 1×1 conv → global max pool (3 layers of Fig. 8)
    val wide = new Path(Seq(
      new Conv2D(1, f, 1, d, rng), new ReLU,
      new Conv2D(f, f, 1, 1, rng), new ReLU,
      new GlobalMaxPool), 1, k, d)

    // long path: k×1 conv → 1×1 conv → global max pool
    val long = new Path(Seq(
      new Conv2D(1, f, k, 1, rng), new ReLU,
      new Conv2D(f, f, 1, 1, rng), new ReLU,
      new GlobalMaxPool), 1, k, d)

    // square path: 3×3 conv + two (conv + pool) modules; kernel/pool sizes
    // clamp to the remaining spatial extent so any k,d >= 5 works.
    val square: Path = {
      val layers = Seq.newBuilder[Layer]
      var (c, h, w) = (1, k, d)
      def addConv(kh: Int, kw: Int, outC: Int): Unit = {
        val l = new Conv2D(c, outC, kh, kw, rng)
        layers += l += new ReLU
        val s = l.outShape(c, h, w); c = s._1; h = s._2; w = s._3
      }
      def addPool(): Unit = {
        val ph = if (h >= 2) 2 else 1
        val pw = if (w >= 2) 2 else 1
        val l = new MaxPool(ph, pw)
        layers += l
        val s = l.outShape(c, h, w); h = s._2; w = s._3
      }
      addConv(3, 3, f)
      var m = 0
      while (m < 2) {
        addConv(math.min(3, h), math.min(3, w), f)
        addPool()
        m += 1
      }
      new Path(layers.result(), 1, k, d)
    }

    val concatLen: Int = wide.outLen + long.outLen + square.outLen
    val fc1 = new Dense(concatLen, cfg.hidden, rng)
    val fc2 = new Dense(cfg.hidden, numClasses, rng)

    /** Every weight and bias array: the wide, long and square paths, then
      * fc1 and fc2. */
    val paramArrays: IndexedSeq[Array[Double]] =
      wide.params ++ long.params ++ square.params ++ fc1.params ++ fc2.params
    /** Where the arrays of wide, long, square, fc1 and fc2 start in
      * `paramArrays`, followed by its length. */
    private val partAt: Array[Int] =
      Array(wide.params, long.params, square.params, fc1.params, fc2.params)
        .map(_.length).scanLeft(0)(_ + _)

    /** A zero gradient buffer: one array per entry of `paramArrays`, of the
      * same length. */
    def newGrads(): IndexedSeq[Array[Double]] = paramArrays.map(p => new Array[Double](p.length))

    /** Activations of one forward pass: each path's `activations`, the
      * concatenated path outputs, fc1's output before and after its ReLU,
      * and the logits. */
    private final class Pass(val wide: Array[Tensor3], val long: Array[Tensor3],
                             val square: Array[Tensor3], val cat: Array[Double],
                             val h1: Array[Double], val a1: Array[Double],
                             val logits: Array[Double])

    private def pass(x: Tensor3): Pass = {
      val (w, l, s) = (wide.activations(x), long.activations(x), square.activations(x))
      val cat = w.last.data ++ l.last.data ++ s.last.data
      val h1 = fc1.forward(cat)
      val a1 = relu(h1)
      new Pass(w, l, s, cat, h1, a1, fc2.forward(a1))
    }

    private def relu(h: Array[Double]): Array[Double] = h.map(v => math.max(v, 0.0))

    def forwardLogits(x: Tensor3): Array[Double] = pass(x).logits

    /** A row-major k × d matrix as the network's input, without a copy: no
      * layer writes to its input. */
    def input(flat: Array[Double]): Tensor3 = {
      require(flat.length == k * d,
        s"CommCNN input has ${flat.length} values, expected k·d = ${k}·${d} = ${k * d}")
      new Tensor3(1, k, d, flat)
    }

    /** Cross-entropy loss for one sample; adds its parameter gradients into
      * `grads`, a buffer from `newGrads`. */
    def lossAndBackward(x: Tensor3, label: Int, grads: IndexedSeq[Array[Double]]): Double = {
      def part(i: Int) = grads.slice(partAt(i), partAt(i + 1))
      val fw = pass(x)
      val gradLogits = Softmax.inPlace(fw.logits)
      val loss = -math.log(math.max(gradLogits(label), 1e-12))
      gradLogits(label) -= 1.0
      val gH1 = fc2.backward(fw.a1, gradLogits, part(4))
      var i = 0
      while (i < gH1.length) { if (!(fw.h1(i) > 0)) gH1(i) = 0.0; i += 1 }
      val gCat = fc1.backward(fw.cat, gH1, part(3))
      wide.backward(fw.wide, gCat.slice(0, wide.outLen), part(0))
      long.backward(fw.long, gCat.slice(wide.outLen, wide.outLen + long.outLen), part(1))
      square.backward(fw.square, gCat.slice(wide.outLen + long.outLen, concatLen), part(2))
      loss
    }
  }

  /** Number of slices a minibatch is split into. It fixes the order in which
    * the per-sample gradients are summed, so it is part of the algorithm:
    * the trained weights are the same whatever the number of threads. */
  private val Shards = 8

  /** Minibatch gradients on one network, split over `Shards` contiguous
    * slices of the batch: shard s gets samples [n·s/8, n·(s+1)/8). The
    * shards run as a parallel stream, on the caller's ForkJoin pool if the
    * caller is a worker of one and on the common pool otherwise. Each shard
    * adds its samples, in order, into its own buffer, starting from zero, and
    * the buffers are then summed in shard order. All shards read the one
    * network; nothing writes to it while they run. */
  private[ml] final class ShardedGradient(net: Network) {
    private val bufs = Array.fill(Shards)(net.newGrads())

    /** Summed loss gradient of the samples `order(start until end)` of
      * `xs`/`ys`, aligned with `net.paramArrays`. The buffer is reused by the
      * next call. */
    def apply(xs: Array[Tensor3], ys: Array[Int], order: Array[Int],
              start: Int, end: Int): IndexedSeq[Array[Double]] = {
      val n = end - start
      IntStream.range(0, Shards).parallel().forEach { s =>
        val g = bufs(s)
        g.foreach(java.util.Arrays.fill(_, 0.0))
        var i = start + n * s / Shards
        val e = start + n * (s + 1) / Shards
        while (i < e) { net.lossAndBackward(xs(order(i)), ys(order(i)), g); i += 1 }
      }
      val sum = bufs(0)
      for (s <- 1 until Shards; a <- sum.indices) {
        val to = sum(a); val from = bufs(s)(a)
        var i = 0
        while (i < to.length) { to(i) += from(i); i += 1 }
      }
      sum
    }
  }

  /** Adam optimizer over the network's parameter arrays. */
  final class Adam(net: Network, lr: Double) {
    private val ps = net.paramArrays
    private val m = ps.map(p => new Array[Double](p.length))
    private val v = ps.map(p => new Array[Double](p.length))
    private var t = 0
    /** Apply `grads`, the summed gradient of `batchSize` samples, aligned
      * with `net.paramArrays`. */
    def step(grads: IndexedSeq[Array[Double]], batchSize: Int): Unit = {
      t += 1
      val bc1 = 1.0 - math.pow(0.9, t)
      val bc2 = 1.0 - math.pow(0.999, t)
      var a = 0
      while (a < ps.length) {
        val p = ps(a); val g = grads(a); val ma = m(a); val va = v(a)
        var i = 0
        while (i < p.length) {
          val gi = g(i) / batchSize
          ma(i) = 0.9 * ma(i) + 0.1 * gi
          va(i) = 0.999 * va(i) + 0.001 * gi * gi
          p(i) -= lr * (ma(i) / bc1) / (math.sqrt(va(i) / bc2) + 1e-8)
          i += 1
        }
        a += 1
      }
    }
  }

  /** Train CommCNN; `xs` are row-major k × d matrices (already
    * tightness-ordered and zero-padded by Phase II), `labels` are class
    * indices into `classes`. Training only reads `xs`. */
  def train(xs: Array[Array[Double]], k: Int, d: Int, labels: Array[Int],
            classes: Array[String], cfg: Config): Model = {
    require(xs.length == labels.length && xs.nonEmpty, "empty or mismatched training data")
    val net = new Network(k, d, classes.length, cfg)
    val adam = new Adam(net, cfg.learningRate)
    val gradient = new ShardedGradient(net)
    val tensors = xs.map(net.input)
    val idx = Array.tabulate(xs.length)(identity)
    val rng = new Random(cfg.seed + 1)

    var epoch = 0
    while (epoch < cfg.epochs) {
      shuffleInPlace(idx, rng)
      var start = 0
      while (start < idx.length) {
        val end = math.min(start + cfg.batchSize, idx.length)
        adam.step(gradient(tensors, labels, idx, start, end), end - start)
        start = end
      }
      epoch += 1
    }
    new Model(net, classes)
  }

  private def shuffleInPlace(a: Array[Int], rng: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }

  /** Trained CommCNN. `predictProba` is a pure function of the weights, so
    * any number of threads may share one instance without locking or
    * copying it. */
  final class Model(val net: Network, val classes: Array[String]) extends Serializable {
    /** Class probabilities of one row-major k × d matrix; reads `flat` only. */
    def predictProba(flat: Array[Double]): Array[Double] =
      Softmax.inPlace(net.forwardLogits(net.input(flat)))
  }
}
