package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.ml.{CommCNN, GBDT}

/** Phase II classification result for one local community: its members
  * and their tightness, as in [[CommFeat]], and the softmax vector r^C over
  * [[repro.wechat.RelationType.Major]] (sorted order). The members and
  * tightness are what Phase III's Eq. 4 reads besides r^C. */
final case class CommPred(ego: Long, comm: Int, members: Array[Long], tightness: Array[Double],
                          probs: Array[Double], pred: String)

/** A trained community classification model — either the XGBoost-style
  * mean/std pooling variant (LoCEC-XGB) or CommCNN (LoCEC-CNN). Both are
  * immutable after training, so one instance may serve any number of
  * threads. */
sealed trait CommModel extends Serializable {
  def classes: Array[String]
  def predictProba(cf: CommFeat): Array[Double]
}

/** LoCEC-XGB: mean and standard deviation of each feature dimension over
  * the community's (top-k) members, fed to the GBDT. */
final class XgbCommModel(val model: GBDT.Model) extends CommModel {
  def classes: Array[String] = model.classes
  def predictProba(cf: CommFeat): Array[Double] =
    model.predictProba(CommunityClassifier.meanStdVector(cf))
}

/** LoCEC-CNN: the full tightness-ordered feature matrix through CommCNN,
  * read in place. */
final class CnnCommModel(val model: CommCNN.Model) extends CommModel {
  def classes: Array[String] = model.classes
  def predictProba(cf: CommFeat): Array[Double] = model.predictProba(cf.flat)
}

/** Training (driver-side — labeled communities are few, as in the paper)
  * and distributed classification of local communities. */
object CommunityClassifier {

  /** [mean_j..., std_j...] over the matrix's real (non-padded) rows; a
    * community classified "by computing the mean and standard deviation of
    * each feature dimension" (Sec. IV-B-2). */
  def meanStdVector(cf: CommFeat): Array[Double] = {
    val rows = math.max(cf.realRows, 1)
    val d = cf.cols
    val mean = new Array[Double](d)
    val std = new Array[Double](d)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < d) { mean(j) += cf.flat(i * d + j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < d) { mean(j) /= rows; j += 1 }
    i = 0
    while (i < rows) {
      var j2 = 0
      while (j2 < d) { val v = cf.flat(i * d + j2) - mean(j2); std(j2) += v * v; j2 += 1 }
      i += 1
    }
    j = 0
    while (j < d) { std(j) = math.sqrt(std(j) / rows); j += 1 }
    mean ++ std
  }

  /** Train the LoCEC-XGB community model on labeled communities. */
  def trainXgb(samples: Seq[(CommFeat, String)],
               params: GBDT.Params = GBDT.Params()): XgbCommModel = {
    val x = samples.map(s => meanStdVector(s._1)).toArray
    val y = samples.map(_._2).toArray
    new XgbCommModel(GBDT.train(x, y, params))
  }

  /** Train the LoCEC-CNN community model on labeled communities. */
  def trainCnn(samples: Seq[(CommFeat, String)],
               cfg: CommCNN.Config = CommCNN.Config()): CnnCommModel = {
    val classes = samples.map(_._2).distinct.sorted.toArray
    val classIdx = classes.zipWithIndex.toMap
    val labels = samples.map(s => classIdx(s._2)).toArray
    val first = samples.head._1
    new CnnCommModel(CommCNN.train(samples.map(_._1.flat).toArray, first.rows, first.cols,
      labels, classes, cfg))
  }

  /** Distributed classification: the (small) model ships inside the task
    * closure and is used as is; inference never writes to it. Each row
    * carries its community's members and tightness through, so Phase III
    * needs no join against the Phase I assignments. */
  def classify(spark: SparkSession, commFeats: Dataset[CommFeat],
               model: CommModel): Dataset[CommPred] = {
    import spark.implicits._
    commFeats.map { cf =>
      val p = model.predictProba(cf)
      CommPred(cf.ego, cf.comm, cf.members, cf.tightness, p, model.classes(p.indexOf(p.max)))
    }
  }
}
