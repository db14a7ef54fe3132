package repro.core

import repro.SparkSpec
import repro.ml.CommCNN
import scala.util.Random

class CommunityClassifierSpec extends SparkSpec {

  private val k = 6
  private val d = 5

  /** A CommFeat whose matrix carries a class-dependent column signature. */
  private def mkFeat(ego: Long, comm: Int, cls: Int, seed: Int): CommFeat = {
    val rng = new Random(seed)
    val size = 3 + rng.nextInt(3)
    val flat = new Array[Double](k * d)
    (0 until math.min(size, k)).foreach { r =>
      (0 until d).foreach { c =>
        val signal = cls match {
          case 0 => if (c < 2) 1.0 else 0.0
          case 1 => if (c >= 2 && c < 4) 1.0 else 0.0
          case _ => if (c == 4) 1.0 else 0.3
        }
        flat(r * d + c) = signal + rng.nextGaussian() * 0.05
      }
    }
    CommFeat(ego, comm, Array.tabulate(size)(i => ego * 100 + i),
      Array.fill(size)(1.0), flat, k, d)
  }

  private val classes = Array("colleague", "family", "schoolmate")

  private def samples(n: Int, seed: Int): Seq[(CommFeat, String)] =
    (0 until n).map(i => (mkFeat(i.toLong, 0, i % 3, seed + i), classes(i % 3)))

  test("meanStdVector has 2*d entries") {
    val v = CommunityClassifier.meanStdVector(mkFeat(1L, 0, 0, 1))
    assert(v.length == 2 * d)
  }

  test("meanStdVector hand computation over real rows only") {
    val flat = new Array[Double](k * d)
    flat(0) = 2.0        // row 0, col 0
    flat(d) = 4.0        // row 1, col 0
    val cf = CommFeat(1L, 0, Array(10L, 11L), Array(1.0, 1.0), flat, k, d)
    val v = CommunityClassifier.meanStdVector(cf)
    assert(v(0) == 3.0)              // mean of col 0 over 2 real rows
    assert(math.abs(v(d) - 1.0) < 1e-12) // std of col 0 = 1
    assert(v(1) == 0.0)
  }

  test("meanStdVector ignores zero padding beyond size") {
    val flat = Array.fill(k * d)(1.0)
    val small = CommFeat(1L, 0, Array(10L), Array(1.0), flat, k, d)
    val v = CommunityClassifier.meanStdVector(small)
    assert(v(0) == 1.0) // mean over the single real row, not k rows
    assert(v(d) == 0.0) // std of one row is 0
  }

  test("trainXgb learns the synthetic community classes") {
    val tr = samples(90, 0)
    val m = CommunityClassifier.trainXgb(tr)
    val te = samples(30, 1000)
    val acc = te.count { case (cf, l) =>
      val p = m.predictProba(cf); m.classes(p.indexOf(p.max)) == l
    }.toDouble / te.size
    assert(acc > 0.9, s"xgb accuracy $acc")
  }

  test("trainCnn learns the synthetic community classes") {
    val tr = samples(90, 1)
    val m = CommunityClassifier.trainCnn(tr,
      CommCNN.Config(filters = 4, hidden = 8, epochs = 40, learningRate = 5e-3, seed = 5))
    val te = samples(30, 2000)
    val acc = te.count { case (cf, l) =>
      val p = m.predictProba(cf); m.classes(p.indexOf(p.max)) == l
    }.toDouble / te.size
    assert(acc > 0.85, s"cnn accuracy $acc")
  }

  test("probabilities sum to one for both model kinds") {
    val tr = samples(30, 2)
    val xgb = CommunityClassifier.trainXgb(tr)
    val cnn = CommunityClassifier.trainCnn(tr,
      CommCNN.Config(filters = 2, hidden = 4, epochs = 3, seed = 6))
    assert(math.abs(xgb.predictProba(tr.head._1).sum - 1.0) < 1e-9)
    assert(math.abs(cnn.predictProba(tr.head._1).sum - 1.0) < 1e-9)
  }

  test("classify runs distributed and preserves keys") {
    import spark.implicits._
    val tr = samples(30, 5)
    val m = CommunityClassifier.trainXgb(tr)
    val ds = spark.createDataset(tr.map(_._1))
    val preds = CommunityClassifier.classify(spark, ds, m).collect()
    assert(preds.length == tr.size)
    assert(preds.map(p => (p.ego, p.comm)).toSet == tr.map(s => (s._1.ego, s._1.comm)).toSet)
    preds.foreach { p =>
      assert(p.probs.length == 3)
      assert(math.abs(p.probs.sum - 1.0) < 1e-9)
      assert(classes.contains(p.pred))
    }
  }

  test("classify with the CNN model is consistent with driver-side inference") {
    import spark.implicits._
    val tr = samples(20, 6)
    val m = CommunityClassifier.trainCnn(tr,
      CommCNN.Config(filters = 2, hidden = 4, epochs = 3, seed = 8))
    val ds = spark.createDataset(tr.map(_._1))
    val preds = CommunityClassifier.classify(spark, ds, m).collect()
      .map(p => (p.ego, p.comm) -> p.probs.toSeq).toMap
    tr.foreach { case (cf, _) =>
      assert(preds((cf.ego, cf.comm)) == m.predictProba(cf).toSeq)
    }
  }
}
