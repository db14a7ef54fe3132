package repro.perf

/** The benchmark's metric math, kept free of Spark so `SelfTest` can check
  * it on hand-made inputs. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile: the sample at 1-based rank ceil(p/100 · n). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(rank(s.length, p) - 1)
  }

  private def rank(n: Int, p: Double): Int =
    math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  private val Ladder = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** The highest percentile on the ladder 99.9/99/95/90/75/50 that leaves at
    * least ten samples beyond it, or 50 when even the median does not. A
    * tail figure read at a rank with fewer samples behind it is noise. */
  def tailPercentile(n: Int): Double =
    Ladder.find(p => n - rank(n, p) >= 10).getOrElse(50.0)

  /** A distribution as (median, tail value, tail percentile, max, count). */
  final case class Dist(p50: Double, tail: Double, tailPct: Double, max: Double, n: Int)

  def dist(xs: Seq[Double]): Dist = {
    val pct = tailPercentile(xs.length)
    Dist(median(xs), percentile(xs, pct), pct, xs.max, xs.length)
  }

  /** Wedges (paths u–ego–v) over all egos: Σ d(d−1)/2. The wedge-close join
    * in `EgoNetworks.egoInnerEdges` materializes exactly this many rows. */
  def wedges(degrees: Iterable[Long]): Long = degrees.iterator.map(d => d * (d - 1) / 2).sum

  /** Max-over-median task time of one stage; 1.0 means perfectly even. */
  def skew(taskTimes: Seq[Double]): Double = {
    val m = median(taskTimes)
    if (m <= 0) 1.0 else taskTimes.max / m
  }

  /** Self time of the span [start, end): its length minus the part of it
    * covered by its children (overlapping children are counted once). */
  def selfTime(start: Double, end: Double, children: Seq[(Double, Double)]): Double = {
    val clipped = children.map { case (s, e) => (math.max(s, start), math.min(e, end)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var covered = 0.0
    var curS = Double.NaN
    var curE = Double.NaN
    clipped.foreach { case (s, e) =>
      if (curE.isNaN || s > curE) {
        if (!curE.isNaN) covered += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (!curE.isNaN) covered += curE - curS
    (end - start) - covered
  }
}
