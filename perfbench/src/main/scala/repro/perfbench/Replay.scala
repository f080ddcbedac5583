package repro.perfbench

import repro.cost.CostModel
import repro.graph.CSRGraph
import repro.setops.{SetOps, WorkCounter}

/** Replays `SetOps` kernels on neighbor lists of adjacent vertices sampled
  * from a workload's graphs, stratified by the lists' size ratio, and
  * times them single-threaded. The result sits next to the rate the cost
  * model assumes for one CPU core; it is a recorded comparison, not a gate.
  */
object Replay {

  /** Size-ratio strata (larger list / smaller list), half-open ranges. */
  final case class Stratum(name: String, lo: Double, hi: Double)
  val strata: Seq[Stratum] = Seq(
    Stratum("1:1", 1.0, 2.0), Stratum("1:10", 5.0, 20.0), Stratum("1:100+", 50.0, Double.PositiveInfinity))

  /** `CostModel.CPU56`'s element rate per core (4e9 / 56 ≈ 71 M steps/s). */
  val modelStepsPerSecPerCore: Double = CostModel.CPU56.elemOpsPerSec / 56

  final case class Pair(g: CSRGraph, a: Int, b: Int)

  /** Up to `perStratum` pairs (a, b) of adjacent vertices per stratum; arcs
    * are drawn uniformly, so an endpoint's chance grows with its degree.
    */
  def sample(graphs: Seq[CSRGraph], seed: Long, perStratum: Int): Map[String, Vector[Pair]] = {
    val rnd = new java.util.Random(seed)
    val gs = graphs.filter(_.numArcs > 0)
    val out = strata.map(s => s.name -> Vector.newBuilder[Pair]).toMap
    val sizes = scala.collection.mutable.Map(strata.map(_.name -> 0): _*)
    var attempts = 0
    while (gs.nonEmpty && attempts < perStratum * 200 && sizes.values.exists(_ < perStratum)) {
      val g = gs(rnd.nextInt(gs.length))
      val arc = rnd.nextInt(g.numArcs)
      var u = java.util.Arrays.binarySearch(g.offsets, arc)
      u = if (u >= 0) { while (u + 1 < g.offsets.length && g.offsets(u + 1) == arc) u += 1; u } else -u - 2
      val v = g.nbrs(arc)
      val ratio = math.max(g.deg(u), g.deg(v)).toDouble / math.max(1, math.min(g.deg(u), g.deg(v)))
      strata.find(s => ratio >= s.lo && ratio < s.hi).foreach { s =>
        if (sizes(s.name) < perStratum) { out(s.name) += Pair(g, u, v); sizes(s.name) += 1 }
      }
      attempts += 1
    }
    out.map { case (k, b) => k -> b.result() }
  }

  /** Timing of one kernel over one stratum. */
  final case class Timing(stratum: String, op: String, pairs: Int, calls: Long, steps: Long, ns: Long) {
    def nsPerStep: Double = if (steps == 0) 0.0 else ns.toDouble / steps
    def nsPerCall: Double = if (calls == 0) 0.0 else ns.toDouble / calls
  }

  final case class Result(timings: Seq[Timing]) {
    private def pooled(op: String) = timings.filter(_.op == op)
    private def perStep(op: String): Double = {
      val t = pooled(op); val s = t.map(_.steps).sum
      if (s == 0) 0.0 else t.map(_.ns).sum.toDouble / s
    }
    def intersectNsPerStep: Double = perStep("intersect")
    def differenceNsPerStep: Double = perStep("difference")
    def countBelowNsPerCall: Double = {
      val t = pooled("countBelow"); val c = t.map(_.calls).sum
      if (c == 0) 0.0 else t.map(_.ns).sum.toDouble / c
    }
    /** Counted merge steps (intersect and difference) per second on one core. */
    def stepsPerSecPerCore: Double = {
      val t = timings.filter(_.op != "countBelow")
      val ns = t.map(_.ns).sum
      if (ns == 0) 0.0 else t.map(_.steps).sum * 1e9 / ns
    }
  }

  private var sink = 0L // keeps the kernels' results observable

  private def runOp(op: String, pairs: Vector[Pair], wc: WorkCounter, out: Array[Int]): Long = {
    var i = 0; var acc = 0L
    while (i < pairs.length) {
      val p = pairs(i); val g = p.g
      acc += (op match {
        case "intersect" =>
          SetOps.intersect(g.nbrs, g.nbrStart(p.a), g.deg(p.a), g.nbrs, g.nbrStart(p.b), g.deg(p.b), out, wc)
        case "difference" =>
          SetOps.difference(g.nbrs, g.nbrStart(p.a), g.deg(p.a), g.nbrs, g.nbrStart(p.b), g.deg(p.b), out, wc)
        case _ => // bound: the middle element of a's list
          val bound = g.nbrs(g.nbrStart(p.a) + g.deg(p.a) / 2)
          SetOps.countBelow(g.nbrs, g.nbrStart(p.b), g.deg(p.b), bound, wc)
      })
      i += 1
    }
    acc
  }

  /** Times every kernel on every stratum for at least `minNs` each, after
    * one untimed warm-up round.
    */
  def run(graphs: Seq[CSRGraph], seed: Long, perStratum: Int = 1000, minNs: Long = 40000000L): Result = {
    val pairs = sample(graphs, seed, perStratum)
    val out = new Array[Int](math.max(1, graphs.map(_.maxDegree).max))
    val timings = for {
      s <- strata if pairs(s.name).nonEmpty
      op <- Seq("intersect", "difference", "countBelow")
    } yield {
      val ps = pairs(s.name)
      sink += runOp(op, ps, new WorkCounter, out)
      val wc = new WorkCounter
      var calls = 0L
      val t0 = System.nanoTime()
      while (System.nanoTime() - t0 < minNs) { sink += runOp(op, ps, wc, out); calls += ps.length }
      Timing(s.name, op, ps.length, calls, wc.ops, System.nanoTime() - t0)
    }
    Result(timings)
  }
}
