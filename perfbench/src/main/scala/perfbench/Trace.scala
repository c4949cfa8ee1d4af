package perfbench

import java.util.concurrent.ConcurrentLinkedQueue

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._

/** Spans recorded in memory around the benchmark's own calls into each
  * layer (the program itself is not instrumented). With tracing off,
  * `Trace(name)(body)` is one branch around `body`. The benchmark is single
  * threaded, so a plain stack gives every span its parent. */
object Trace {

  final case class Span(id: Int, parent: Int, pass: Int, name: String,
                        startNs: Long, endNs: Long, startMs: Long, endMs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  var on   = false
  var pass = -1
  val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0

  def apply[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val ms0 = System.currentTimeMillis(); val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime(); val ms1 = System.currentTimeMillis()
        stack = stack.tail
        spans += Span(id, parent, pass, name, t0, t1, ms0, ms1)
      }
    }

  /** Duration minus the time covered by direct children. */
  def selfSeconds: Map[Int, Double] = {
    val child = spans.groupMapReduce(_.parent)(_.seconds)(_ + _)
    spans.map(s => s.id -> (s.seconds - child.getOrElse(s.id, 0.0))).toMap
  }

  /** Per-pass sum of the durations of spans called `name`. */
  def perPass(name: String): Map[Int, Double] =
    spans.filter(_.name == name).groupMapReduce(_.pass)(_.seconds)(_ + _)

  def jsonLines(tasks: TaskLog): Iterator[String] = {
    val self = selfSeconds
    spans.iterator.map { s =>
      val t = tasks.within(s.startMs, s.endMs)
      Json.obj(
        "id" -> s.id, "parent" -> s.parent, "pass" -> s.pass, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs,
        "self_s" -> self(s.id), "spark_tasks" -> t.size,
        "spark_task_run_s" -> t.map(_.runMs).sum / 1e3)
    }
  }
}

/** Spark task metrics, collected by a listener the benchmark registers on
  * its session. Events arrive asynchronously; they are matched to spans by
  * wall-clock time, since the benchmark runs one Spark action at a time. */
final class TaskLog extends SparkListener {
  import TaskLog._

  private val tasks  = new ConcurrentLinkedQueue[TaskRec]
  private val jobs   = new ConcurrentLinkedQueue[java.lang.Long]
  private val stages = new ConcurrentLinkedQueue[java.lang.Long]

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null)
      tasks.add(TaskRec(e.taskInfo.launchTime, m.executorRunTime,
        m.executorCpuTime, m.jvmGCTime, m.executorDeserializeTime, m.resultSize))
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.add(e.time)

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val t: Long = e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis())
    stages.add(t)
  }

  def events: Int = tasks.size + jobs.size + stages.size

  /** Wait until no event has arrived for 300 ms (at most 5 s). */
  def drain(): Unit = {
    val deadline = System.currentTimeMillis() + 5000
    var last = -1
    while (events != last && System.currentTimeMillis() < deadline) {
      last = events; Thread.sleep(300)
    }
  }

  def within(fromMs: Long, toMs: Long): Vector[TaskRec] =
    tasks.asScala.filter(t => t.launchMs >= fromMs && t.launchMs <= toMs).toVector

  def jobsWithin(fromMs: Long, toMs: Long): Int =
    jobs.asScala.count(t => t >= fromMs && t <= toMs)

  def stagesWithin(fromMs: Long, toMs: Long): Int =
    stages.asScala.count(t => t >= fromMs && t <= toMs)
}

object TaskLog {
  final case class TaskRec(launchMs: Long, runMs: Long, cpuNs: Long, gcMs: Long,
                           deserMs: Long, resultBytes: Long)
}

/** Just enough JSON output for the result line, the results file and spans. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').toString
  }

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case Raw(s)     => s
    case m: Map[_, _] =>
      m.map { case (k, x) => s"${str(k.toString)}: ${value(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(value).mkString("[", ", ", "]")
    case other      => str(other.toString)
  }

  /** An already-rendered JSON fragment. */
  final case class Raw(s: String)

  def obj(kv: (String, Any)*): String =
    kv.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
