package repro.perfbench

/** Summary statistics over timing samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Linear-interpolated percentile `p` in [0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = p / 100.0 * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** The highest whole percentile with at least ten of `n` samples beyond
    * it, or None when there are too few samples for any percentile above
    * the median.
    */
  def tailPercentile(n: Int): Option[Int] = {
    val p = math.floor(100.0 * (n - 10) / n).toInt
    if (n >= 20) Some(p) else None
  }

  /** "median 1.23 s over n samples", plus the tail percentile when the
    * sample count supports one.
    */
  def describe(xs: Seq[Double], unit: String): String = {
    val base = f"median ${median(xs)}%.4f $unit over ${xs.length} samples"
    tailPercentile(xs.length).fold(base)(p => base + f", p$p ${percentile(xs, p)}%.4f $unit")
  }

  /** Failed queries over attempted queries; 0 when nothing was attempted. */
  def failRate(failed: Int, attempted: Int): Double =
    if (attempted == 0) 0.0 else failed.toDouble / attempted
}
