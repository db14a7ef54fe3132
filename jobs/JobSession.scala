package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession factory for the spark-submit entrypoints. */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** numUsers for bench-scale runs; override with BENCH_USERS. */
  def benchUsers: Int = sys.env.getOrElse("BENCH_USERS", "5000").toInt
}
