package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.udf

/** Phase I dataflow: ego-network construction as DataFrame joins.
  *
  * The ego network G_v of a node v contains v's neighbors (not v itself)
  * and the edges among them. Distributed construction needs two relations:
  *   - `egoMembers`:    (ego, friend)  — the symmetrized edge list;
  *   - `egoInnerEdges`: (ego, a, b)    — for every ego, the edges among its
  *     friends, i.e. triangle enumeration: a wedge a–ego–b closed by the
  *     edge (a, b).
  * Input `edges` must be canonical (src < dst, no duplicates): `egoMembers`
  * rejects self-loops and src > dst rows, and `LocalCommunities.detect`
  * rejects duplicates.
  */
object EgoNetworks {

  /** `src`, after checking that (src, dst) is a canonical edge. One shared
    * instance, so plans built from the same edges stay equal. */
  private val canonicalSrc: UserDefinedFunction = udf { (src: Long, dst: Long) =>
    require(src != dst, s"self-loop ($src, $dst) in edges")
    require(src < dst, s"edge ($src, $dst) is not canonical: edges must have src < dst")
    src
  }

  /** (ego, friend) pairs — each undirected edge contributes both
    * directions. Fails on a self-loop or a src > dst edge, naming it. */
  def egoMembers(spark: SparkSession, edges: DataFrame): DataFrame = {
    import spark.implicits._
    edges.select(canonicalSrc($"src", $"dst") as "ego", $"dst" as "friend")
      .union(edges.select($"dst" as "ego", $"src" as "friend"))
  }

  /** (ego, a, b) with a < b: edges among the friends of each ego — the
    * standard wedge-close triangle enumeration, executed as two shuffled
    * joins so each ego's inner edge list is produced in parallel. */
  def egoInnerEdges(spark: SparkSession, edges: DataFrame): DataFrame = {
    import spark.implicits._
    val sym = egoMembers(spark, edges)
    sym.as("m1")
      .join(sym.as("m2"), $"m1.ego" === $"m2.ego" && $"m1.friend" < $"m2.friend")
      .select($"m1.ego" as "ego", $"m1.friend" as "a", $"m2.friend" as "b")
      .join(edges.select($"src" as "a", $"dst" as "b"), Seq("a", "b"))
      .select("ego", "a", "b")
  }
}
