package repro.perf

/** Checks of the metric math in [[Stats]]; every benchmark run executes
  * them first and aborts on a failure, so no figure is printed from broken
  * arithmetic. */
object SelfTest {

  private def check(cond: Boolean, what: String): Unit =
    if (!cond) throw new AssertionError(s"benchmark self-test failed: $what")

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9

  def run(): Unit = {
    // percentile rule: the tail rank must leave >= 10 samples beyond it
    check(Stats.tailPercentile(10000) == 99.9, "n=10000 reads p99.9 (10 beyond)")
    check(Stats.tailPercentile(9999) == 99.0, "n=9999 has only 9 beyond p99.9")
    check(Stats.tailPercentile(1000) == 99.0, "n=1000 reads p99 (10 beyond)")
    check(Stats.tailPercentile(999) == 95.0, "n=999 has only 9 beyond p99")
    check(Stats.tailPercentile(200) == 95.0, "n=200 reads p95 (10 beyond)")
    check(Stats.tailPercentile(100) == 90.0, "n=100 reads p90 (10 beyond)")
    check(Stats.tailPercentile(20) == 50.0, "n=20 reads p50 (10 beyond)")
    check(Stats.tailPercentile(5) == 50.0, "n=5 falls back to p50")
    val hundred = (1 to 100).map(_.toDouble)
    check(Stats.percentile(hundred, 90) == 90.0, "nearest-rank p90 of 1..100")
    check(Stats.percentile(hundred, 50) == 50.0, "nearest-rank p50 of 1..100")
    check(Stats.median(hundred) == 50.5, "median of 1..100 averages the middle pair")
    check(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0, "median of an odd count")
    val d = Stats.dist(hundred.reverse)
    check(d.tailPct == 90.0 && d.tail == 90.0 && d.max == 100.0 && d.n == 100,
      s"dist of 1..100 gives p90=90, max=100, n=100; got $d")

    // span self time: children are clipped to the parent and unioned
    check(close(Stats.selfTime(0, 10, Nil), 10), "no children: all self")
    check(close(Stats.selfTime(0, 10, Seq((1.0, 3.0), (5.0, 6.0))), 7), "disjoint children")
    check(close(Stats.selfTime(0, 10, Seq((1.0, 4.0), (2.0, 6.0))), 5), "overlapping children count once")
    check(close(Stats.selfTime(0, 10, Seq((-2.0, 1.0), (9.0, 12.0))), 8), "children clipped to the parent")
    check(close(Stats.selfTime(0, 10, Seq((0.0, 10.0))), 0), "fully covered")

    // skew: max over median task time
    check(close(Stats.skew(Seq(1.0, 1.0, 1.0)), 1.0), "even tasks have skew 1")
    check(close(Stats.skew(Seq(1.0, 2.0, 8.0)), 4.0), "skew of 1,2,8 is 8/2")
    check(close(Stats.skew(Seq(0.0, 0.0, 5.0)), 1.0), "zero median reads as no skew")

    // wedges from degrees: star K1,3 has 3 wedges; a triangle has 3
    check(Stats.wedges(Seq(3L, 1L, 1L, 1L)) == 3L, "star K1,3")
    check(Stats.wedges(Seq(2L, 2L, 2L)) == 3L, "triangle")
    check(Stats.wedges(Seq(4L, 4L, 4L, 4L, 4L)) == 30L, "K5: 5 egos x C(4,2)")
    check(Stats.wedges(Seq(0L, 1L)) == 0L, "degrees 0 and 1 close no wedge")
  }
}
