package repro.bench

import java.util.concurrent.{Callable, ForkJoinPool}
import repro.SparkSpec
import repro.core.{CnnCommModel, CommunityClassifier, CommunityFeatures}

/** CommCNN training throughput on the bench's own labeled communities: the
  * forward and backward pass per sample, on real Phase II matrices.
  *
  * One epoch is trained in a 1-worker ForkJoin pool and then in the default
  * pool (the common pool plus the calling thread). Each minibatch gradient is
  * summed over a fixed number of shards in a fixed order, so the two runs
  * must give bitwise the same parameters; the default pool only runs the
  * shards on more threads.
  */
class CommCNNTrainSuite extends SparkSpec {

  private lazy val samples = CommunityFeatures.labeledSamples(spark, Bench.precomputed.commFeats,
    Bench.st.trainEdges, Bench.sizes.maxTrainCommunities)

  private val cfg = Bench.sizes.cnn.copy(epochs = 1)

  /** One training epoch and its wall-clock seconds. */
  private def fit(): (CnnCommModel, Double) = {
    val t0 = System.nanoTime()
    val m = CommunityClassifier.trainCnn(samples, cfg)
    (m, (System.nanoTime() - t0) / 1e9)
  }

  private def inPool[T](threads: Int)(body: => T): T = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[T] { def call(): T = body }).get()
    finally pool.shutdown()
  }

  private def paramBits(m: CnnCommModel): Seq[Seq[Long]] =
    m.model.net.paramArrays.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))

  test("CommCNN training: samples/s in a 1-worker and the default pool, bitwise equal parameters") {
    assert(samples.nonEmpty)
    (1 to 2).foreach(_ => fit()) // JIT warm-up, discarded
    val (one, oneSec) = inPool(1)(fit())
    val (dflt, dfltSec) = fit()
    val threads = ForkJoinPool.getCommonPoolParallelism + 1
    Bench.banner(s"CommCNN training, 1 epoch over ${samples.size} labeled communities " +
      s"(k=${samples.head._1.rows}, d=${samples.head._1.cols}, batch ${cfg.batchSize})")
    println(f"| 1-worker pool       | ${oneSec}%6.2f s | ${samples.size / oneSec}%8.0f samples/s |")
    println(f"| default ($threads threads)  | ${dfltSec}%6.2f s | ${samples.size / dfltSec}%8.0f samples/s |")
    assert(paramBits(one) == paramBits(dflt))
  }
}
