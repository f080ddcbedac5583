package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable.ArrayBuffer

/** One call from the benchmark into a layer: a span on the driver clock.
  * `pass` groups the calls of one pass over a workload's queries (-1 for
  * set-up calls).
  */
final case class CallRec(id: Int, pass: Int, layer: String, startMs: Long, endMs: Long, wallNs: Long,
                         counters: Map[String, Double]) {
  def wallS: Double = wallNs / 1e9
}

/** A completed Spark stage, attributed to the call whose thread submitted it. */
final case class StageRec(stageId: Int, call: Int, submitMs: Long, endMs: Long)

/** A finished Spark task (times in ms, sizes in bytes). */
final case class TaskRec(stageId: Int, runMs: Long, deserMs: Long, gcMs: Long,
                         shuffleBytes: Long, shuffleRecords: Long, spillBytes: Long)

/** A Spark job, attributed like its stages. */
final case class JobRec(jobId: Int, call: Int)

/** Records Spark stage, task and job events. The benchmark thread sets
  * the local property [[LayerListener.CallKey]] around each layer call, so
  * every job, and the stages and tasks under it, name the call that
  * submitted them; untagged work is ignored.
  */
final class LayerListener extends SparkListener {
  import LayerListener._

  private val stageCall = scala.collection.concurrent.TrieMap.empty[Int, Int]
  private val drains = new java.util.concurrent.LinkedBlockingQueue[String]
  val stages = new ArrayBuffer[StageRec]
  val tasks = new ArrayBuffer[TaskRec]
  val jobs = new ArrayBuffer[JobRec]
  private val drainJobs = scala.collection.concurrent.TrieMap.empty[Int, String]

  private def callOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty(CallKey)))

  override def onJobStart(e: SparkListenerJobStart): Unit = callOf(e.properties).foreach { c =>
    if (c.startsWith(DrainPrefix)) drainJobs(e.jobId) = c
    else synchronized { jobs += JobRec(e.jobId, c.toInt) }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    drainJobs.remove(e.jobId).foreach(c => drains.put(c))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    callOf(e.properties).filterNot(_.startsWith(DrainPrefix)).foreach(c => stageCall(e.stageInfo.stageId) = c.toInt)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val si = e.stageInfo
    for (call <- stageCall.get(si.stageId); sub <- si.submissionTime; end <- si.completionTime)
      synchronized { stages += StageRec(si.stageId, call, sub, end) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null && stageCall.contains(e.stageId)) synchronized {
      tasks += TaskRec(e.stageId, m.executorRunTime, m.executorDeserializeTime, m.jvmGCTime,
        m.shuffleWriteMetrics.bytesWritten, m.shuffleWriteMetrics.recordsWritten, m.diskBytesSpilled)
    }
  }

  /** Blocks until every event posted before this call has been delivered:
    * runs a tagged one-task job and waits for the listener to see it end
    * (a listener's events arrive in order).
    */
  def drain(sc: SparkContext, timeoutMs: Long = 60000): Unit = {
    val tag = DrainPrefix + System.nanoTime()
    val old = sc.getLocalProperty(CallKey)
    sc.setLocalProperty(CallKey, tag)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(CallKey, old)
    var seen = false
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!seen) {
      val left = deadline - System.currentTimeMillis()
      if (left <= 0) sys.error("Spark listener events did not arrive")
      val c = drains.poll(left, java.util.concurrent.TimeUnit.MILLISECONDS)
      seen = c == tag
    }
  }
}

object LayerListener {
  val CallKey = "perfbench.call"
  private val DrainPrefix = "drain-"
}

/** The traced run's [[Calls]]: keeps every span in memory and tags the
  * Spark work each call submits.
  */
final class Tracer(sc: SparkContext) extends Calls {
  val calls = new ArrayBuffer[CallRec]
  var pass: Int = -1

  def counted[A](layer: String, counters: A => Seq[(String, Double)])(body: => A): A = {
    val id = calls.length
    val old = sc.getLocalProperty(LayerListener.CallKey)
    sc.setLocalProperty(LayerListener.CallKey, id.toString)
    calls += null // reserve the id; nested calls get later ones
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    var counts = Map.empty[String, Double]
    try {
      val out = body
      counts = counters(out).toMap
      out
    } finally {
      val wall = System.nanoTime() - t0
      sc.setLocalProperty(LayerListener.CallKey, old)
      calls(id) = CallRec(id, pass, layer, startMs, System.currentTimeMillis(), wall, counts)
    }
  }
}

/** Per-layer figures derived from the recorded spans and Spark events. */
object Derive {

  /** Total length covered by a set of intervals [start, end). */
  def unionMs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    for ((s, e) <- intervals.filter(i => i._2 > i._1).sortBy(_._1)) {
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Σ longest task / Σ mean task over groups of task times; 1.0 means
    * every group's tasks took equally long. Groups without time are skipped.
    */
  def skew(groups: Seq[Seq[Long]]): Double = {
    val g = groups.filter(ts => ts.nonEmpty && ts.sum > 0)
    val maxes = g.map(_.max.toDouble).sum
    val means = g.map(ts => ts.sum.toDouble / ts.length).sum
    if (means == 0) 0.0 else maxes / means
  }

  /** Task time divided by (stage span × cores). */
  def coreUtil(taskMs: Long, spanMs: Long, cores: Int): Double =
    if (spanMs <= 0) 0.0 else taskMs.toDouble / (spanMs.toDouble * cores)

  /** The Spark side of one call: its stages, their tasks and its jobs. */
  final case class CallSpark(call: CallRec, stages: Seq[StageRec], tasks: Seq[TaskRec], jobs: Int) {
    /** Time the call's stages cover, clipped to the call's own span. */
    def stageSpanMs: Long =
      unionMs(stages.map(s => (math.max(s.submitMs, call.startMs), math.min(s.endMs, call.endMs))))
    /** The call's wall time outside any of its stages: driver work. */
    def driverS: Double = math.max(0.0, call.wallS - stageSpanMs / 1000.0)
    def taskMs: Long = tasks.map(_.runMs).sum
    def stageTasks: Seq[Seq[Long]] = {
      val byStage = tasks.groupBy(_.stageId)
      stages.map(s => byStage.getOrElse(s.stageId, Nil).map(_.runMs))
    }
  }

  def join(calls: Seq[CallRec], stages: Seq[StageRec], tasks: Seq[TaskRec], jobs: Seq[JobRec]): Seq[CallSpark] = {
    val stagesBy = stages.groupBy(_.call)
    val tasksBy = tasks.groupBy(_.stageId)
    val jobsBy = jobs.groupBy(_.call)
    calls.map { c =>
      val ss = stagesBy.getOrElse(c.id, Nil)
      CallSpark(c, ss, ss.flatMap(s => tasksBy.getOrElse(s.stageId, Nil)), jobsBy.getOrElse(c.id, Nil).length)
    }
  }

  private def sumCounter(cs: Seq[CallSpark], key: String): Double = cs.map(_.call.counters.getOrElse(key, 0.0)).sum
  private val MB = 1024.0 * 1024.0

  /** Per-layer metrics of one traced pass, keyed by metric name; layers
    * with no call in the pass report 0.
    */
  def pass(cs: Seq[CallSpark], cores: Int): Map[String, Double] = {
    def layer(l: String) = cs.filter(_.call.layer == l)
    val plan = layer(Layers.Plan)
    val eng = layer(Layers.Engine)
    val mc = layer(Layers.Mc)
    val fsm = layer(Layers.Fsm)
    val engineTaskMs = eng.map(_.taskMs).sum
    val engineSpanMs = eng.map(_.stageSpanMs).sum
    val steps = sumCounter(eng, "steps")
    val fsmTaskMs = fsm.map(_.taskMs).sum
    val fsmSpanMs = fsm.map(_.stageSpanMs).sum
    val fsmCand = sumCounter(fsm, "candidates")
    Map(
      "plan.plan_s" -> plan.map(_.call.wallS).sum,
      "engine.run_s" -> eng.map(_.call.wallS).sum,
      "engine.driver_s" -> eng.map(_.driverS).sum,
      "engine.task_s" -> engineTaskMs / 1000.0,
      "engine.task_max_s" -> eng.map(c => if (c.tasks.isEmpty) 0L else c.tasks.map(_.runMs).max).sum / 1000.0,
      "engine.skew" -> skew(eng.map(_.tasks.map(_.runMs))),
      "engine.core_util" -> coreUtil(engineTaskMs, engineSpanMs, cores),
      "engine.task_deser_s" -> eng.flatMap(_.tasks).map(_.deserMs).sum / 1000.0,
      "engine.gc_s" -> eng.flatMap(_.tasks).map(_.gcMs).sum / 1000.0,
      "engine.tasks" -> sumCounter(eng, "tasks"),
      "engine.tree_nodes" -> sumCounter(eng, "tree_nodes"),
      "setops.steps" -> steps,
      "setops.saved_steps" -> sumCounter(eng, "saved_steps"),
      "setops.matches_per_kstep" -> (if (steps == 0) 0.0 else 1000.0 * sumCounter(eng, "matches") / steps),
      "mc.run_s" -> mc.map(_.call.wallS).sum,
      "mc.driver_s" -> mc.map(_.driverS).sum,
      "mc.shuffle_write_mb" -> mc.flatMap(_.tasks).map(_.shuffleBytes).sum / MB,
      "mc.work" -> sumCounter(mc, "work"),
      "fsm.run_s" -> fsm.map(_.call.wallS).sum,
      "fsm.driver_s" -> fsm.map(_.driverS).sum,
      "fsm.task_s" -> fsmTaskMs / 1000.0,
      "fsm.core_util" -> coreUtil(fsmTaskMs, fsmSpanMs, cores),
      "fsm.skew" -> skew(fsm.flatMap(_.stageTasks)),
      "fsm.shuffle_write_mb" -> fsm.flatMap(_.tasks).map(_.shuffleBytes).sum / MB,
      "fsm.shuffle_records" -> fsm.flatMap(_.tasks).map(_.shuffleRecords).sum.toDouble,
      "fsm.spill_mb" -> fsm.flatMap(_.tasks).map(_.spillBytes).sum / MB,
      "fsm.jobs" -> fsm.map(_.jobs).sum.toDouble,
      "fsm.embeddings" -> sumCounter(fsm, "embeddings"),
      "fsm.frequent_frac" -> (if (fsmCand == 0) 0.0 else sumCounter(fsm, "frequent") / fsmCand),
    )
  }

  /** Set-up figures of one set-up repetition: graph build and orientation. */
  def setup(cs: Seq[CallRec]): Map[String, Double] = Map(
    "graph.build_s" -> cs.filter(_.layer == Layers.GraphBuild).map(_.wallS).sum,
    "graph.orient_s" -> cs.filter(_.layer == Layers.GraphOrient).map(_.wallS).sum,
  )
}
