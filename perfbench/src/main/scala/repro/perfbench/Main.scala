package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import org.json4s.JsonAST.{JDouble, JObject, JValue}
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import repro.graph.CSRGraph

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Wall-clock benchmark of the G²Miner configuration of the engines.
  *
  * {{{
  * Main --workload motif4-lj|clique-sl-mix|fsm3-mi --seed N --seconds S --trace 0|1
  *      [--trace-file PATH]
  * }}}
  *
  * One run: build the workload's graphs from the seed several times
  * (`setup_s`), answer every query once and check it against a second
  * computation (this also warms the JIT up), then repeat the queries for
  * `--seconds` seconds. With `--trace 0` it reports the end-to-end
  * metrics of those passes; with `--trace 1` it alternates untraced and
  * traced passes and reports per-layer metrics from the traced ones. The
  * last line of standard output is the result as one JSON object.
  * Every answer is also checked against the recorded one.
  */
object Main {

  final case class Metric(name: String, unit: String)

  val endToEnd: Seq[Metric] = Seq(
    Metric("wall_s", "s"), Metric("cpu_s", "s"), Metric("setup_s", "s"), Metric("heap_peak_mb", "MB"))

  val perLayer: Seq[Metric] = Seq(
    Metric("graph.build_s", "s"), Metric("graph.orient_s", "s"),
    Metric("plan.plan_s", "s"),
    Metric("engine.run_s", "s"), Metric("engine.driver_s", "s"), Metric("engine.task_s", "s"),
    Metric("engine.task_max_s", "s"), Metric("engine.skew", "ratio"), Metric("engine.core_util", "ratio"),
    Metric("engine.task_deser_s", "s"), Metric("engine.gc_s", "s"),
    Metric("engine.tasks", "count"), Metric("engine.tree_nodes", "count"),
    Metric("setops.steps", "count"), Metric("setops.saved_steps", "count"),
    Metric("setops.matches_per_kstep", "count"),
    Metric("setops.intersect_ns_per_step", "ns"), Metric("setops.difference_ns_per_step", "ns"),
    Metric("setops.count_below_ns_per_call", "ns"), Metric("setops.steps_per_s_per_core", "1/s"),
    Metric("mc.run_s", "s"), Metric("mc.driver_s", "s"), Metric("mc.shuffle_write_mb", "MB"),
    Metric("mc.work", "count"),
    Metric("fsm.run_s", "s"), Metric("fsm.driver_s", "s"), Metric("fsm.task_s", "s"),
    Metric("fsm.core_util", "ratio"), Metric("fsm.skew", "ratio"),
    Metric("fsm.shuffle_write_mb", "MB"), Metric("fsm.shuffle_records", "count"), Metric("fsm.spill_mb", "MB"),
    Metric("fsm.jobs", "count"), Metric("fsm.embeddings", "count"), Metric("fsm.frequent_frac", "ratio"),
    Metric("trace.overhead_frac", "ratio"),
  )

  /** Graph set-ups per run, at least this many and for at least
    * [[MinSetupSeconds]]. The first half warms the JIT up; `setup_s` is
    * the median of the second half, so that a graph of a few milliseconds
    * is not timed while its generator is still being compiled.
    */
  val SetupReps = 6
  val MinSetupSeconds = 2.0
  /** Fewest timed passes of each kind, however long a pass takes. */
  val MinPasses = 2

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        traceFile: Option[String])

  def parse(argv: Seq[String]): Either[String, Args] = {
    val kv = argv.sliding(2, 1).collect { case Seq(k, v) if k.startsWith("--") => k -> v }.toMap
    for {
      wn <- kv.get("--workload").toRight("--workload is required")
      w <- Workloads.byName(wn).toRight(s"unknown workload $wn; known: ${Workloads.all.map(_.name).mkString(", ")}")
      seed <- kv.get("--seed").fold[Either[String, Long]](Right(0L))(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- kv.get("--seconds").fold[Either[String, Double]](Right(10.0))(s =>
        s.toDoubleOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- kv.get("--trace").fold[Either[String, Boolean]](Right(false)) {
        case "0" => Right(false); case "1" => Right(true); case t => Left(s"bad --trace $t")
      }
    } yield Args(w, seed, secs, trace, kv.get("--trace-file"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(err) => Console.err.println(s"perfbench: $err"); sys.exit(2)
    }
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${args.workload.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try { new Bench(spark, args, cores).run(); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  private val osBean = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  def cpuNs(): Long = osBean.getProcessCpuTime
}

/** One timed pass over a workload's queries; `heapMb` is the largest
  * post-GC heap occupancy during it.
  */
final case class Pass(index: Int, traced: Boolean, wallS: Double, cpuS: Double, heapMb: Double,
                      queryS: Map[String, Double])

final class Bench(spark: SparkSession, args: Main.Args, cores: Int) {
  import Main._

  private val w = args.workload
  private val sc = spark.sparkContext
  private val heap = new HeapWatch
  private val tracer = if (args.trace) Some(new Tracer(sc)) else None
  private val listener = new LayerListener
  private var attempted = 0
  private var failed = 0

  private def log(msg: String): Unit = {
    val up = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    Console.err.println(f"[perfbench $up%6.1fs] $msg")
  }

  /** Builds the workload's graphs, then forces the lazy orientation of
    * every graph a query orients, so neither is paid inside a query.
    */
  private def setUp(calls: Calls): Map[String, CSRGraph] = {
    val gs = w.graphSpecs.map(s => s.name -> calls(Layers.GraphBuild)(s.build(args.seed))).toMap
    w.oriented.foreach(n => calls(Layers.GraphOrient)(gs(n).oriented))
    gs
  }

  /** Answers each query once and checks it against the second computation
    * and against the recorded answer. Returns the checked answer every
    * later pass must reproduce.
    */
  private def verify(graphs: Map[String, CSRGraph]): Map[String, Option[Vector[Long]]] = {
    val runner = new Runner(spark, graphs, Calls.untraced)
    w.queries.map { q =>
      attempted += 1
      val t0 = System.nanoTime()
      val ans = scala.util.Try(runner.answer(q))
      val t1 = System.nanoTime()
      val ref = scala.util.Try(runner.reference(q))
      val took = f"(${(t1 - t0) / 1e9}%.2f s, second computation ${(System.nanoTime() - t1) / 1e9}%.2f s)"
      val rec = w.recorded.get(q.name)
      val problems = Seq(
        ans.failed.toOption.map(e => s"threw $e"),
        ref.failed.toOption.map(e => s"second computation threw $e"),
        for (a <- ans.toOption; r <- ref.toOption if q.checked(a) != r)
          yield s"answer ${q.checked(a).take(12).mkString(",")} != second computation ${r.take(12).mkString(",")}",
        for (a <- ans.toOption if !rec.contains(q.recorded(a)))
          yield s"answer ${q.recorded(a).mkString(",")} != recorded ${rec.fold("none")(_.mkString(","))}",
      ).flatten
      if (problems.nonEmpty) { failed += 1; log(s"FAIL ${q.name} $took: ${problems.mkString("; ")}") }
      else log(s"ok   ${q.name} $took: ${q.recorded(ans.get).mkString(",")}")
      q.name -> ref.toOption
    }.toMap
  }

  private def timedPass(index: Int, traced: Boolean, graphs: Map[String, CSRGraph],
                        expected: Map[String, Option[Vector[Long]]]): Pass = {
    val calls: Calls = if (traced) tracer.get else Calls.untraced
    if (traced) { sc.addSparkListener(listener); tracer.get.pass = index }
    val runner = new Runner(spark, graphs, calls)
    val qs = Map.newBuilder[String, Double]
    heap.reset()
    val cpu0 = cpuNs(); val t0 = System.nanoTime()
    for (q <- w.queries) {
      attempted += 1
      val tq = System.nanoTime()
      try {
        val a = q.checked(runner.answer(q))
        if (!expected(q.name).contains(a)) { failed += 1; log(s"FAIL ${q.name} in pass $index: wrong answer") }
      } catch { case NonFatal(e) => failed += 1; log(s"FAIL ${q.name} in pass $index: threw $e") }
      qs += q.name -> (System.nanoTime() - tq) / 1e9
    }
    val pass = Pass(index, traced, (System.nanoTime() - t0) / 1e9, (cpuNs() - cpu0) / 1e9, heap.peakMb, qs.result())
    if (traced) { listener.drain(sc); sc.removeSparkListener(listener) }
    pass
  }

  def run(): Unit = {
    val setupCalls = tracer.getOrElse(Calls.untraced)
    val setupS = ArrayBuffer.empty[Double]
    val setupLayers = ArrayBuffer.empty[Map[String, Double]]
    var graphs: Map[String, CSRGraph] = Map.empty
    val setupStart = System.nanoTime()
    while (setupS.length < SetupReps || (System.nanoTime() - setupStart) / 1e9 < MinSetupSeconds) {
      graphs = Map.empty
      val first = tracer.fold(0)(_.calls.length)
      val t0 = System.nanoTime()
      graphs = setUp(setupCalls)
      setupS += (System.nanoTime() - t0) / 1e9
      tracer.foreach(t => setupLayers += Derive.setup(t.calls.drop(first).toSeq))
    }
    val warmSetups = setupS.length / 2
    setupS.remove(0, warmSetups)
    if (setupLayers.nonEmpty) setupLayers.remove(0, warmSetups)
    log(s"${w.name} seed ${args.seed}: " + graphs.toSeq.sortBy(_._1).map { case (n, g) => s"$n ${g.stats}" }.mkString("; "))

    val expected = verify(graphs)

    // Passes still speed up after the check while the JIT and Spark's
    // code generation settle; one untimed pass keeps most of that out.
    timedPass(-1, traced = false, graphs, expected)

    val passes = ArrayBuffer.empty[Pass]
    val start = System.nanoTime()
    def count(traced: Boolean) = passes.count(_.traced == traced)
    while ((System.nanoTime() - start) / 1e9 < args.seconds || count(false) < MinPasses ||
           (args.trace && count(true) < MinPasses)) {
      val traced = args.trace && passes.length % 2 == 1
      passes += timedPass(passes.length, traced, graphs, expected)
    }
    log(s"timed section done: ${passes.length} passes")
    val untraced = passes.filterNot(_.traced).toSeq

    val metrics: Seq[(Metric, Double)] =
      if (!args.trace) {
        val m = Map(
          "wall_s" -> Stats.median(untraced.map(_.wallS)),
          "cpu_s" -> Stats.median(untraced.map(_.cpuS)),
          "setup_s" -> Stats.median(setupS.toSeq),
          "heap_peak_mb" -> Stats.median(untraced.map(_.heapMb)))
        endToEnd.map(x => x -> m(x.name))
      } else {
        val traced = passes.filter(_.traced).toSeq
        val replay = Replay.run(graphs.values.toSeq.sortBy(_.n), args.seed)
        val layers = traceMetrics(traced, setupLayers.toSeq, replay,
          Stats.median(traced.map(_.wallS)) / Stats.median(untraced.map(_.wallS)) - 1)
        replay.timings.foreach(t => log(f"replay ${t.stratum}%-6s ${t.op}%-10s pairs ${t.pairs}%5d " +
          f"${t.nsPerStep}%.3f ns/step ${t.nsPerCall}%.1f ns/call"))
        log(f"replay: ${replay.stepsPerSecPerCore / 1e6}%.1f M counted steps/s per core; " +
          f"CostModel.CPU56 assumes ${Replay.modelStepsPerSecPerCore / 1e6}%.1f M")
        args.traceFile.foreach(f => TraceFile.write(f, args, tracer.get, listener, passes.toSeq, replay, layers))
        perLayer.map(x => x -> layers(x.name))
      }

    report(setupS.toSeq, untraced, passes.filter(_.traced).toSeq, metrics)
  }

  private def traceMetrics(traced: Seq[Pass], setups: Seq[Map[String, Double]], replay: Replay.Result,
                           overhead: Double): Map[String, Double] = {
    val t = tracer.get
    val joined = Derive.join(t.calls.filter(c => c != null && c.pass >= 0).toSeq,
      listener.stages.toSeq, listener.tasks.toSeq, listener.jobs.toSeq)
    val perPass = traced.map(p => Derive.pass(joined.filter(_.call.pass == p.index), cores))
    def med(ms: Seq[Map[String, Double]]) = ms.head.keys.map(k => k -> Stats.median(ms.map(_(k)))).toMap
    med(perPass) ++ med(setups) ++ Map(
      "setops.intersect_ns_per_step" -> replay.intersectNsPerStep,
      "setops.difference_ns_per_step" -> replay.differenceNsPerStep,
      "setops.count_below_ns_per_call" -> replay.countBelowNsPerCall,
      "setops.steps_per_s_per_core" -> replay.stepsPerSecPerCore,
      "trace.overhead_frac" -> overhead,
    )
  }

  private def report(setupS: Seq[Double], untraced: Seq[Pass], traced: Seq[Pass],
                     metrics: Seq[(Metric, Double)]): Unit = {
    val failRate = Stats.failRate(failed, attempted)
    println(s"workload ${w.name}  seed ${args.seed}  cores $cores  trace ${if (args.trace) 1 else 0}")
    println(s"  wall_s        ${Stats.describe(untraced.map(_.wallS), "s")} (untraced passes)")
    println(s"  cpu_s         ${Stats.describe(untraced.map(_.cpuS), "s")}")
    println(s"  setup_s       ${Stats.describe(setupS, "s")}")
    println(s"  heap_peak_mb  ${Stats.describe(untraced.map(_.heapMb), "MB")} (largest post-GC heap of a pass)")
    println(f"  fail_rate     $failRate%.4f ratio ($failed of $attempted queries failed)")
    if (traced.nonEmpty) println(s"  traced wall_s ${Stats.describe(traced.map(_.wallS), "s")}")
    println(s"  pass walls    ${(untraced ++ traced).sortBy(_.index).map(p => f"${p.wallS}%.3f").mkString(" ")} s")
    for (q <- w.queries)
      println(s"  query ${q.name}: ${Stats.describe(untraced.map(_.queryS(q.name)), "s")}")
    for ((m, v) <- metrics) println(f"  ${m.name}%-32s $v%.6g ${m.unit}")
    val ms = metrics.map { case (m, v) => m.name -> (("value" -> TraceFile.finite(v)) ~ ("unit" -> m.unit)) }
    println(compact(render(("correct" -> (failed == 0)) ~ ("attempted" -> attempted) ~ ("failed" -> failed) ~
      ("metrics" -> JObject(ms.toList)))))
  }
}

/** Writes the traced run's spans, Spark records and derived figures. */
object TraceFile {
  /** JSON has no NaN or infinity; a ratio over nothing reads 0. */
  def finite(v: Double): Double = if (v.isNaN || v.isInfinite) 0.0 else v

  /** A JSON object of named numbers, in key order. */
  def numbers(kv: Iterable[(String, Double)]): JObject =
    JObject(kv.toList.sortBy(_._1).map { case (k, v) => k -> (JDouble(finite(v)): JValue) })

  def write(path: String, args: Main.Args, tracer: Tracer, l: LayerListener, passes: Seq[Pass],
            replay: Replay.Result, layers: Map[String, Double]): Unit = {
    val calls = tracer.calls.filter(_ != null).map { c =>
      ("id" -> c.id) ~ ("pass" -> c.pass) ~ ("layer" -> c.layer) ~ ("start_ms" -> c.startMs) ~
        ("end_ms" -> c.endMs) ~ ("wall_s" -> c.wallS) ~
        ("counters" -> numbers(c.counters))
    }
    val stages = l.stages.map(s => ("stage" -> s.stageId) ~ ("call" -> s.call) ~ ("submit_ms" -> s.submitMs) ~
      ("end_ms" -> s.endMs))
    val tasks = l.tasks.map(t => ("stage" -> t.stageId) ~ ("run_ms" -> t.runMs) ~ ("deser_ms" -> t.deserMs) ~
      ("gc_ms" -> t.gcMs) ~ ("shuffle_bytes" -> t.shuffleBytes) ~ ("shuffle_records" -> t.shuffleRecords) ~
      ("spill_bytes" -> t.spillBytes))
    val ps = passes.map(p => ("index" -> p.index) ~ ("traced" -> p.traced) ~ ("wall_s" -> p.wallS) ~
      ("cpu_s" -> p.cpuS) ~ ("heap_mb" -> p.heapMb))
    val rp = replay.timings.map(t => ("stratum" -> t.stratum) ~ ("op" -> t.op) ~ ("pairs" -> t.pairs) ~
      ("calls" -> t.calls) ~ ("steps" -> t.steps) ~ ("ns" -> t.ns))
    val doc = ("workload" -> args.workload.name) ~ ("seed" -> args.seed) ~
      ("metrics" -> numbers(layers)) ~
      ("passes" -> ps.toList) ~ ("calls" -> calls.toList) ~ ("stages" -> stages.toList) ~
      ("tasks" -> tasks.toList) ~ ("replay" -> rp.toList)
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val out = new java.io.PrintWriter(f, "UTF-8")
    try out.println(compact(render(doc))) finally out.close()
  }
}
