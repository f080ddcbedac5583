package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo

import scala.jdk.CollectionConverters._

/** Largest post-GC heap occupancy since the last [[reset]], read from the
  * JVM's garbage-collection notifications.
  */
final class HeapWatch extends NotificationListener {
  private val heapPools: Set[String] =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  @volatile private var peak = 0L
  @volatile private var gcs = 0
  /** Collections each collector had finished when the window started. A
    * GC's id is its collector's count including it, so a GC with a larger
    * id ended after the window started; the notification of an earlier GC
    * is ignored however late it arrives.
    */
  @volatile private var windowStart = Map.empty[String, Long]

  collectors.foreach {
    case e: NotificationEmitter => e.addNotificationListener(this, null, null)
    case _ => ()
  }

  def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val gc = info.getGcInfo
      val used = gc.getMemoryUsageAfterGc.asScala.collect {
        case (pool, u) if heapPools.contains(pool) => u.getUsed
      }.sum
      synchronized {
        if (windowStart.get(info.getGcName).exists(gc.getId > _)) { gcs += 1; if (used > peak) peak = used }
      }
    }

  /** Starts a new window with a forced GC, whose post-GC occupancy (the
    * live set the window starts from) is the window's floor. Returns once
    * a GC of the window has been seen, or after two seconds.
    */
  def reset(): Unit = {
    synchronized { peak = 0L; gcs = 0; windowStart = collectors.map(c => c.getName -> c.getCollectionCount).toMap }
    System.gc()
    val deadline = System.currentTimeMillis() + 2000
    while (gcs == 0 && System.currentTimeMillis() < deadline) Thread.sleep(5)
  }

  def peakMb: Double = peak / (1024.0 * 1024.0)
  def collections: Int = gcs
}
