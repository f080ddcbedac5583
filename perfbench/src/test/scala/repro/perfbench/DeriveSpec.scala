package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** Derivations of the benchmark's metrics, on synthetic spans and Spark
  * listener records.
  */
class DeriveSpec extends AnyFunSuite {

  private def call(id: Int, layer: String, startMs: Long, endMs: Long, pass: Int = 0,
                   counters: Map[String, Double] = Map.empty) =
    CallRec(id, pass, layer, startMs, endMs, (endMs - startMs) * 1000000L, counters)

  private def task(stage: Int, runMs: Long, deserMs: Long = 0, gcMs: Long = 0,
                   shuffleBytes: Long = 0, shuffleRecords: Long = 0, spillBytes: Long = 0) =
    TaskRec(stage, runMs, deserMs, gcMs, shuffleBytes, shuffleRecords, spillBytes)

  test("interval union merges overlaps and ignores empty intervals") {
    assert(Derive.unionMs(Nil) == 0)
    assert(Derive.unionMs(Seq((0L, 10L), (20L, 30L))) == 20)
    assert(Derive.unionMs(Seq((0L, 10L), (5L, 15L), (2L, 3L))) == 15)
    assert(Derive.unionMs(Seq((10L, 10L), (12L, 11L), (0L, 4L))) == 4)
  }

  test("skew is sum of longest tasks over sum of mean tasks") {
    assert(Derive.skew(Seq(Seq(5L, 5L, 5L, 5L))) == 1.0)
    // one run: max 8, mean 4; another: max 2, mean 2 -> (8 + 2) / (4 + 2)
    assert(math.abs(Derive.skew(Seq(Seq(8L, 0L, 4L, 4L), Seq(2L, 2L))) - 10.0 / 6.0) < 1e-12)
    assert(Derive.skew(Seq(Nil, Seq(0L, 0L))) == 0.0)
  }

  test("core utilisation is task time over stage span times cores") {
    assert(Derive.coreUtil(taskMs = 400, spanMs = 100, cores = 4) == 1.0)
    assert(Derive.coreUtil(taskMs = 100, spanMs = 100, cores = 4) == 0.25)
    assert(Derive.coreUtil(taskMs = 100, spanMs = 0, cores = 4) == 0.0)
  }

  test("driver time is the call's span minus its stages, clipped to the call") {
    val c = call(0, Layers.Engine, 1000, 2000)
    val stages = Seq(StageRec(7, 0, 1100, 1500), StageRec(8, 0, 1400, 1600), StageRec(9, 0, 1900, 2300))
    val cs = Derive.CallSpark(c, stages, Nil, jobs = 2)
    assert(cs.stageSpanMs == 500 + 100) // [1100, 1600) and the clipped [1900, 2000)
    assert(math.abs(cs.driverS - 0.4) < 1e-9)
    assert(Derive.CallSpark(c, Nil, Nil, 0).driverS == 1.0)
  }

  test("join attributes stages to calls, tasks to stages, and counts jobs") {
    val calls = Seq(call(0, Layers.Engine, 0, 100), call(1, Layers.Fsm, 100, 300))
    val stages = Seq(StageRec(1, 0, 10, 90), StageRec(2, 1, 110, 200), StageRec(3, 1, 200, 290))
    val tasks = Seq(task(1, 30), task(2, 10), task(3, 20), task(3, 40), task(99, 1000))
    val jobs = Seq(JobRec(0, 0), JobRec(1, 1), JobRec(2, 1))
    val j = Derive.join(calls, stages, tasks, jobs)
    assert(j.map(_.tasks.map(_.runMs).sum) == Seq(30L, 70L))
    assert(j.map(_.jobs) == Seq(1, 2))
    assert(j(1).stageTasks == Seq(Seq(10L), Seq(20L, 40L)))
  }

  test("per-pass engine figures from synthetic listener records") {
    val eng = Map("tasks" -> 10.0, "tree_nodes" -> 50.0, "matches" -> 40.0, "steps" -> 2000.0, "saved_steps" -> 7.0)
    val calls = Seq(
      call(0, Layers.Plan, 0, 2),
      call(1, Layers.Engine, 2, 1002, counters = eng),
      call(2, Layers.Engine, 1002, 1502, counters = eng))
    // run 1: one stage of 4 tasks [400, 100, 100, 200] over 800 ms; run 2: even tasks over 400 ms
    val stages = Seq(StageRec(10, 1, 102, 902), StageRec(11, 2, 1052, 1452))
    val tasks = Seq(task(10, 400, deserMs = 5, gcMs = 3), task(10, 100), task(10, 100), task(10, 200),
      task(11, 300), task(11, 300), task(11, 300), task(11, 300, deserMs = 5))
    val m = Derive.pass(Derive.join(calls, stages, tasks, Nil), cores = 4)
    assert(math.abs(m("plan.plan_s") - 0.002) < 1e-9)
    assert(math.abs(m("engine.run_s") - 1.5) < 1e-9)
    assert(math.abs(m("engine.driver_s") - (1.5 - 1.2)) < 1e-9)
    assert(m("engine.task_s") == 2.0)
    assert(m("engine.task_max_s") == 0.7)
    assert(math.abs(m("engine.skew") - (400.0 + 300.0) / (200.0 + 300.0)) < 1e-12)
    assert(math.abs(m("engine.core_util") - 2000.0 / (1200.0 * 4)) < 1e-12)
    assert(m("engine.task_deser_s") == 0.01)
    assert(m("engine.gc_s") == 0.003)
    assert(m("engine.tasks") == 20 && m("engine.tree_nodes") == 100)
    assert(m("setops.steps") == 4000 && m("setops.saved_steps") == 14)
    assert(m("setops.matches_per_kstep") == 1000.0 * 80 / 4000)
    // layers with no call report zero
    assert(m("fsm.run_s") == 0 && m("mc.run_s") == 0 && m("fsm.skew") == 0)
  }

  test("per-pass FSM figures: per-stage skew, shuffle, spill and jobs") {
    val fsm = Map("embeddings" -> 900.0, "frequent" -> 3.0, "candidates" -> 12.0)
    val calls = Seq(call(0, Layers.Fsm, 0, 1000, counters = fsm))
    val stages = Seq(StageRec(1, 0, 100, 300), StageRec(2, 0, 300, 500))
    val mb = 1024L * 1024
    val tasks = Seq(task(1, 100, shuffleBytes = mb, shuffleRecords = 10), task(1, 300, spillBytes = 2 * mb),
      task(2, 50, shuffleBytes = 3 * mb, shuffleRecords = 5), task(2, 50))
    val m = Derive.pass(Derive.join(calls, stages, tasks, Seq(JobRec(4, 0), JobRec(5, 0), JobRec(6, 0))), cores = 2)
    assert(m("fsm.run_s") == 1.0)
    assert(math.abs(m("fsm.driver_s") - 0.6) < 1e-9)
    assert(m("fsm.task_s") == 0.5)
    assert(math.abs(m("fsm.core_util") - 500.0 / (400.0 * 2)) < 1e-12)
    assert(math.abs(m("fsm.skew") - (300.0 + 50.0) / (200.0 + 50.0)) < 1e-12)
    assert(m("fsm.shuffle_write_mb") == 4.0 && m("fsm.shuffle_records") == 15 && m("fsm.spill_mb") == 2.0)
    assert(m("fsm.jobs") == 3 && m("fsm.embeddings") == 900 && m("fsm.frequent_frac") == 0.25)
    assert(m("engine.run_s") == 0 && m("engine.skew") == 0 && m("setops.matches_per_kstep") == 0)
  }

  test("set-up figures sum graph builds and orientations of one repetition") {
    val s = Derive.setup(Seq(call(0, Layers.GraphBuild, 0, 300, -1), call(1, Layers.GraphBuild, 300, 400, -1),
      call(2, Layers.GraphOrient, 400, 450, -1)))
    assert(math.abs(s("graph.build_s") - 0.4) < 1e-9 && math.abs(s("graph.orient_s") - 0.05) < 1e-9)
  }

  test("median, percentile and the tail percentile with its sample count") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    assert(Stats.percentile((1 to 101).map(_.toDouble), 90) == 91.0)
    assert(Stats.tailPercentile(19).isEmpty)
    assert(Stats.tailPercentile(20).contains(50))
    assert(Stats.tailPercentile(100).contains(90))
    assert(Stats.describe(Seq(1.0, 2.0, 3.0), "s") == "median 2.0000 s over 3 samples")
    assert(Stats.describe((1 to 100).map(_.toDouble), "s").endsWith("over 100 samples, p90 90.1000 s"))
  }

  test("fail rate counts failed over attempted queries") {
    assert(Stats.failRate(0, 0) == 0.0)
    assert(Stats.failRate(0, 12) == 0.0)
    assert(Stats.failRate(3, 12) == 0.25)
  }

  test("FSM answers compare supports per edge count, not pattern codes") {
    val a = Map("2|1:0,1" -> 5L, "2|1:0,2" -> 4L, "3|110:0,1,1" -> 4L)
    val b = Map("2|1:3,3" -> 4L, "2|1:1,1" -> 5L, "3|011:2,2,0" -> 4L)
    assert(Answers.fsm(a, 3) == Vector(2L, 4L, 5L, 1L, 4L, 0L))
    assert(Answers.fsm(a, 3) == Answers.fsm(b, 3))
    assert(Answers.fsmFrequent(Answers.fsm(a, 3)) == 3)
    // supports computed, then the encoding: 3 frequent of 7, supports totalling 13
    assert(Query.Fsm3("f", "Mi", 4).recorded(7L +: Answers.fsm(a, 3)) == Vector(3L, 7L, 13L))
  }

  test("a heap window starts with the forced GC and sees it") {
    val h = new HeapWatch
    val t0 = System.nanoTime()
    h.reset()
    assert((System.nanoTime() - t0) / 1e9 < 1.0, "reset waited for its GC until the deadline")
    assert(h.collections >= 1 && h.peakMb > 0)
  }

  test("every query has a recorded answer") {
    for (w <- Workloads.all) assert(w.recorded.keySet == w.queries.map(_.name).toSet, w.name)
  }

  test("a seed permutes vertex ids, moving edges and labels with them") {
    val g = repro.graph.CSRGraph.fromEdges(5, Seq((0, 1), (1, 2), (2, 0), (3, 4)), Array(7, 8, 9, 7, 8))
    assert(Relabel.permute(g, 0) eq g)
    val p = Relabel.permutation(5, 3)
    assert(p.sorted.toSeq == (0 until 5) && p.toSeq == Relabel.permutation(5, 3).toSeq)
    assert(p.toSeq != (0 until 5), "seed 3 happens to give the identity; pick another")
    val h = Relabel.permute(g, 3)
    for (u <- 0 until 5; v <- 0 until 5) assert(g.hasEdge(u, v) == h.hasEdge(p(u), p(v)), (u, v))
    for (v <- 0 until 5) {
      assert(h.label(p(v)) == g.label(v))
      val ns = h.nbrs.slice(h.nbrStart(v), h.nbrEnd(v))
      assert(ns.toSeq == ns.sorted.toSeq)
    }
    assert(h.numEdges == g.numEdges)
  }

  test("argument parsing") {
    val a = Main.parse(Seq("--workload", "fsm3-mi", "--seed", "7", "--seconds", "3", "--trace", "1")).toOption.get
    assert(a.workload == Workloads.fsm3Mi && a.seed == 7 && a.seconds == 3.0 && a.trace)
    assert(Main.parse(Seq("--workload", "nope")).isLeft)
    assert(Main.parse(Seq("--workload", "fsm3-mi", "--trace", "2")).isLeft)
    assert(Main.parse(Seq("--seed", "1")).isLeft)
  }

  test("the metric catalogue matches BENCHMARK.json") {
    import org.json4s._
    val file = new java.io.File(sys.props("user.dir")).getAbsoluteFile.getParentFile
    val json = org.json4s.jackson.JsonMethods.parse(scala.io.Source.fromFile(new java.io.File(file, "BENCHMARK.json")).mkString)
    def metrics(key: String): Seq[(String, String)] = (json \ key).children.map { m =>
      ((m \ "name").values.toString, (m \ "unit").values.toString)
    }
    assert(metrics("end_to_end") == Main.endToEnd.map(m => (m.name, m.unit)))
    assert(metrics("per_layer") == Main.perLayer.map(m => (m.name, m.unit)))
    assert((json \ "workloads").children.map(w => (w \ "name").values.toString) == Workloads.all.map(_.name))
  }
}
