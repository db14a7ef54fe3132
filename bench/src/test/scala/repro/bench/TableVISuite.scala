package repro.bench

import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.core.{CommunityFeatures, EgoNetworks, LoCEC, LocalCommunities}
import repro.exp.Experiments

/** Table VI — running time of LoCEC-CNN per phase, over the whole network.
  *
  * Paper (hours, 100 servers, full WeChat graph): training 4.5, Phase I
  * 46.5, Phase II 15.3, Phase III 7.4, total 73.7. We run the same pipeline
  * end-to-end on local[*] over the bench graph and report seconds.
  *
  * One shape caveat (recorded in EXPERIMENTS.md): the paper's Phase I
  * dominance comes from Girvan–Newman's O(m²n) cost inside WeChat's *dense*
  * production ego networks (average degree in the hundreds); our bench
  * graph has mean degree ~14, so per-ego GN is cheap and Phase III's fixed
  * join/LR overheads dominate instead. The density-scaling test below
  * demonstrates the mechanism behind the paper's Phase I dominance
  * directly.
  */
class TableVISuite extends SparkSpec {

  // An explicitly uncached run. The other suites persist Phase I/II
  // Datasets of the same network, and Spark's CacheManager substitutes any
  // matching plan with the cached data, which would zero out the very
  // timings this table measures. So the cache is dropped, the inputs are
  // set up afresh, and the run starts only once no Phase I/II plan of those
  // inputs is cached.
  private lazy val timings: LoCEC.Timings = {
    spark.catalog.clearCache()
    assert(spark.sharedState.cacheManager.isEmpty, "cache not empty after clearCache")
    val st = Experiments.setup(spark, Bench.numUsers)
    val params = LoCEC.Params()
    val inner = EgoNetworks.egoInnerEdges(spark, st.edges)
    val assigns = LocalCommunities.detect(spark, st.edges, inner, params.gnPatienceFrac)
    val phase12 = Seq(
      "inner edges" -> inner,
      "community assignments" -> assigns,
      "community features" -> CommunityFeatures.compute(spark, assigns, inner, st.interactions,
        st.userFeatures, params.k, params.interDims, params.featDims))
    phase12.foreach { case (what, ds) =>
      assert(ds.storageLevel == StorageLevel.NONE, s"$what are cached before the timed run")
    }
    Experiments.tableVI(spark, st, Bench.sizes)
  }

  test("Table VI: print per-phase running time (paper hours vs our seconds)") {
    Bench.banner(s"TABLE VI — LoCEC-CNN running time (${Bench.numUsers} users, all edges labeled)")
    println("| Method    | Training | Phase I | Phase II | Phase III | Total |")
    println("| paper (h) |      4.5 |    46.5 |     15.3 |       7.4 |  73.7 |")
    println(f"| ours  (s) | ${timings.trainingSec}%8.1f | ${timings.phase1Sec}%7.1f " +
            f"| ${timings.phase2Sec}%8.1f | ${timings.phase3Sec}%9.1f | ${timings.totalSec}%5.1f |")
  }

  test("every phase takes measurable time") {
    assert(timings.trainingSec > 0 && timings.phase1Sec > 0 &&
      timings.phase2Sec > 0 && timings.phase3Sec > 0)
  }

  test("per-ego GN cost explodes with ego-network density (why the paper's Phase I dominates)") {
    import repro.core.LocalCommunities
    val rng = new scala.util.Random(4)
    def egoNet(n: Int): (Array[Long], Seq[(Long, Long)]) = {
      val friends = (0 until n).map(_.toLong).toArray
      val edges = for {
        i <- 0 until n; j <- i + 1 until n
        sameBlock = (i < n / 2) == (j < n / 2)
        if rng.nextDouble() < (if (sameBlock) 0.6 else 0.1)
      } yield (i.toLong, j.toLong)
      (friends, edges)
    }
    def timeGN(n: Int): Double = {
      val (friends, edges) = egoNet(n)
      // warm up JIT, then take the best of 3
      LocalCommunities.detectOne(0L, friends, edges)
      (0 until 3).map { _ =>
        val t0 = System.nanoTime()
        LocalCommunities.detectOne(0L, friends, edges)
        (System.nanoTime() - t0) / 1e9
      }.min
    }
    val small = timeGN(20) // sparse-graph-scale ego network
    val large = timeGN(80) // WeChat-scale-density ego network
    println(f"GN per ego network: 20 nodes ${small * 1000}%.2f ms, 80 nodes ${large * 1000}%.2f ms " +
            f"(${large / small}%.0fx for 4x nodes)")
    assert(large > 5 * small,
      s"GN should scale superlinearly: 20-node $small s vs 80-node $large s")
  }

  test("total is the sum of the parts") {
    assert(math.abs(timings.totalSec - (timings.trainingSec + timings.phase1Sec +
      timings.phase2Sec + timings.phase3Sec)) < 1e-9)
  }
}
