package repro

import org.apache.spark.sql.functions._
import repro.wechat.SocialGen

/** Smoke tests for the DuckDB oracle on `SocialGen` frames — proves the
  * correctness harness itself is wired up. */
class OracleSmokeSpec extends SparkSpec {
  import spark.implicits._

  private lazy val net = SocialGen.generate(spark, SocialGen.Config(numUsers = 300, seed = 5))
  private lazy val edges = net.edges.toDF().select("src", "dst", "label").cache()
  private lazy val users = net.users.toDF().select($"user" as "uid", $"gender", $"age").cache()

  test("edge label aggregate matches DuckDB") {
    val agg = edges.groupBy("label")
      .agg(count(lit(1)) as "cnt", sum($"dst" - $"src") as "span")
    Oracle.assertEquivalent(agg,
      """SELECT label, COUNT(*) AS cnt,
        |       CAST(SUM(CAST(dst AS BIGINT) - CAST(src AS BIGINT)) AS BIGINT) AS span
        |FROM edges GROUP BY label""".stripMargin,
      "edges" -> edges)
  }

  test("edges-users join matches DuckDB") {
    val joined = edges.join(users, edges("src") === users("uid"))
      .groupBy("gender").agg(count(lit(1)) as "cnt", sum("age") as "age_sum")
    Oracle.assertEquivalent(joined,
      """SELECT gender, COUNT(*) AS cnt, CAST(SUM(CAST(age AS BIGINT)) AS BIGINT) AS age_sum
        |FROM edges JOIN users ON CAST(src AS BIGINT) = CAST(uid AS BIGINT)
        |GROUP BY gender""".stripMargin,
      "edges" -> edges, "users" -> users)
  }
}
