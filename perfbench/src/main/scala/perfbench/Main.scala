package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.bench.Scripts.ScriptBench
import repro.core.{Backend, Compiler, Frontend, Parser, Transform}
import repro.core.Dfg.Graph
import repro.core.Transform.PashConfig
import repro.exec.{RefExec, SparkExec, Store}
import repro.sim.{PipeSim, SimBuild}

/** The benchmark: one workload, one seed, one run.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                --work <dir> --sim-expected <file> [--scale <k>] [--git <sha>]
  * }}}
  *
  * Set-up (session start, input registration, reference outputs, warm-up)
  * is followed by passes over the workload until `--seconds` have passed.
  * Every pass times, per script, the parallel and the sequential Spark run
  * and the RefExec run of the parallel regions. With `--trace 1`, the
  * second half of the passes is traced and also times the compiler, the
  * simulator and the kernels. Every output is checked. The last line of
  * standard output is the JSON result.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double,
                        trace: Boolean, work: File, simExpected: File,
                        scale: Option[Int], git: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
         need("trace") == "1", new File(need("work")), new File(need("sim-expected")),
         m.get("scale").map(_.toInt), m.getOrElse("git", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { new Bench(parse(args)).run(); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    System.exit(code)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The `p`-quantile of `xs`, interpolated linearly between order
    * statistics. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted; val n = s.size
    if (n == 0) Double.NaN
    else {
      val h = (n - 1) * p; val lo = h.toInt; val hi = math.min(lo + 1, n - 1)
      s(lo) + (h - lo) * (s(hi) - s(lo))
    }
  }

  /** The quantile of an item's samples that a timing reports: the lower
    * decile. The host's CPUs switch between a fast phase and one about
    * 1.5 times slower, for seconds to minutes at a time, so a median
    * reports how much of the run fell in the slow phase. The lower decile
    * reads the program in the fast phase. */
  val ItemQuantile = 0.1

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = body; (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Untimed passes in set-up; the JIT settles after about eight. */
  val WarmupPasses = 8

  /** End-to-end metrics timed in passes: (name, item kind). */
  val EndToEnd: List[(String, String)] =
    List("par_s" -> "par", "seq_s" -> "seq", "ref_s" -> "ref")
}

/** One pass: the seconds each timed item took, keyed `kind:name` (`par:wf`,
  * `compile:wf:16`, `sim:wf:pash-16`), plus per-layer values when traced. */
final case class Pass(no: Int, items: Map[String, List[Double]], traced: Boolean,
                      startMs: Long, endMs: Long, layers: Map[String, Double]) {
  def sum(kind: String): Double =
    items.iterator.collect { case (k, v) if k.startsWith(kind + ":") => Main.median(v) }.sum
}

/** A Spark script with its width-`nproc` plan and its reference output:
  * RefExec on the sequential regions. */
final case class Prepared(b: ScriptBench, parallel: List[Graph], expected: RefExec.Out)

final class Bench(o: Main.Opts) {
  import Main._

  private val w     = Workloads.get(o.workload)
  private val scale = o.scale.getOrElse(w.scale)
  private val nproc = Runtime.getRuntime.availableProcessors
  private val results = new File(o.work, "results")

  private var attempted = 0
  private var failed    = 0
  private val failures  = ArrayBuffer.empty[String]

  private def fail(what: String): Unit = {
    failed += 1
    if (failures.size < 20) failures += what
  }

  /** Run and time `body`; an exception or an output that differs from
    * `expected` counts as a failure. */
  private def checked(label: String, expected: RefExec.Out)(body: => RefExec.Out): Double = {
    attempted += 1
    val (out, dt) = seconds {
      try Some(body) catch { case NonFatal(e) => fail(s"$label: $e"); None }
    }
    out.foreach(v => if (v != expected) fail(s"$label: output differs from the sequential reference"))
    dt
  }

  // ------------------------------------------------------------ set-up

  private lazy val spark: SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(o.work, "spark-local").getAbsolutePath)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def store(b: ScriptBench): Store = {
    val s = new Store(spark.sparkContext)
    Workloads.register(s, b, scale, o.seed)
    s
  }

  private var prepared: List[Prepared] = Nil
  private var fingerprint = ""

  private def prepare(): Unit = {
    prepared = w.scripts.map { b =>
      Prepared(b, Compiler.pash(b.script, PashConfig(nproc)).parallel,
               RefExec.runProgram(Frontend.compile(b.script).regions, store(b)))
    }
    fingerprint = Workloads.fingerprint(w, scale, o.seed)
  }

  private val simExpected: Map[(String, String), Double] =
    if (!o.simExpected.exists()) Map.empty
    else scala.io.Source.fromFile(o.simExpected).getLines()
      .filterNot(l => l.startsWith("#") || l.isBlank).map { l =>
        val Array(s, c, v) = l.split("\t"); (s, c) -> v.toDouble
      }.toMap
  private val simActual = collection.mutable.LinkedHashMap.empty[(String, String), Double]

  // ------------------------------------------------------------ passes

  private def sparkPass(items: Samples): Unit =
    prepared.foreach { p =>
      val b = p.b
      Trace(s"script:${b.name}") {
        val s1 = store(b)
        val par = checked(s"${b.name} par", p.expected)(Trace("run.par") {
          val res = Trace("core.pash")(Compiler.pash(b.script, PashConfig(nproc)))
          Trace("exec.spark.runProgram")(new SparkExec(spark, s1).runProgram(res.parallel))
        })
        val s2 = store(b)
        val seq = checked(s"${b.name} seq", p.expected)(Trace("run.seq") {
          val regions = Trace("core.frontend")(Frontend.compile(b.script).regions)
          Trace("exec.spark.runProgram")(new SparkExec(spark, s2).runProgram(regions))
        })
        val s3 = store(b)
        val ref = checked(s"${b.name} ref", p.expected)(Trace("run.ref") {
          Trace("exec.ref.runProgram")(RefExec.runProgram(p.parallel, s3))
        })
        add(items, s"par:${b.name}", par)
        add(items, s"seq:${b.name}", seq)
        add(items, s"ref:${b.name}", ref)
      }
    }

  private type Samples = collection.mutable.Map[String, List[Double]]
  private def add(items: Samples, key: String, v: Double): Unit =
    items(key) = v :: items.getOrElse(key, Nil)

  private val Widths = List(16, 64)

  private var nodes, fifos = 0L

  /** The steps of Compiler.pash on Workloads.compileSet at widths 16 and 64,
    * one span each. The timed item is what Compiler.pash runs (Frontend,
    * Transform, Backend.emit and stats); Parser.parse is timed apart, before
    * the item, so that `core.frontend_ms` can leave it out. */
  private def compilePass(items: Samples): Unit = {
    var n, f = 0L
    for (b <- Workloads.compileSet; width <- Widths) {
      val cfg = PashConfig(width)
      attempted += 1
      try {
        Trace("compile.parse")(Parser.parse(b.script))
        add(items, s"compile:${b.name}:$width", seconds {
          val regions = Trace("compile.frontend")(Frontend.compile(b.script).regions)
          val par = Trace("compile.transform")(regions.map(Transform.parallelize(_, cfg)))
          Trace("compile.backend") {
            val emitted = par.map(Backend.emit)
            emitted.map(_.script).mkString("\n")
            f += emitted.map(_.fifos).sum
            n += Backend.stats(par).nodes
          }
        }._2)
      } catch { case NonFatal(e) => fail(s"compile ${b.name} w=$width: $e") }
    }
    if (Trace.on) { nodes = n; fifos = f }
  }

  private var simRuns, simDeadlocks = 0

  /** The steps of SimBuild.simulateScript on the workload's scripts over
    * Workloads.simConfigs, one span each; every result must equal the value
    * stored from the seed. */
  private def simPass(items: Samples): Unit =
    for (b <- w.scripts; (cname, cfg) <- Workloads.simConfigs) {
      attempted += 1
      val wl = b.workload()
      val (v, dt) = seconds {
        try Some {
          val res = Trace("sim.compile")(Compiler.pash(b.script, cfg))
          res.parallel.map { g =>
            val (procs, chans) = Trace("sim.build")(SimBuild.build(g, wl))
            val r = Trace("sim.run")(PipeSim.run(procs, chans, wl.cores, wl.netMBs,
                                                 volumeHintMB = wl.volumeHintMB))
            if (Trace.on) {
              simRuns += 1
              if (r.deadlocked) simDeadlocks += 1
            }
            require(!r.deadlocked, "simulated script deadlocked")
            r.timeSec
          }.sum
        }
        catch { case NonFatal(e) => fail(s"sim ${b.name} $cname: $e"); None }
      }
      add(items, s"sim:${b.name}:$cname", dt)
      v.foreach { t =>
        simActual((b.name, cname)) = t
        simExpected.get((b.name, cname)) match {
          case Some(e) if math.abs(t - e) <= 1e-9 * math.max(1.0, math.abs(e)) => ()
          case Some(e) => fail(s"sim ${b.name} $cname: $t s, stored $e s")
          case None    => fail(s"sim ${b.name} $cname: no stored value")
        }
      }
    }

  // ------------------------------------------------- traced-only probes

  private lazy val taskLog = new TaskLog
  private lazy val kernels = {
    val (n, gen) = Workloads.mainText(w, scale, o.seed)
    new KernelProbe(n, gen, nproc)
  }
  private lazy val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toList

  private def storeReadRate(): Double = {
    val files = w.scripts.flatMap { b =>
      val s = new Store(null)
      Workloads.register(s, b, scale, o.seed).map(f => (s, f))
    }
    val (lines, dt) = seconds(Trace("exec.store.fetch")(files.map { case (s, f) => s.fetch(f).size.toLong }.sum))
    lines / dt / 1e6
  }

  private var passNo = 0

  private def pass(traced: Boolean): Pass = {
    Trace.on = traced
    val no = passNo; passNo += 1
    Trace.pass = no
    // Start every pass from a collected heap, so that one pass's garbage
    // is not collected inside the next one's timings.
    System.gc()
    if (traced) heapPools.foreach(_.resetPeakUsage())
    val ms0 = System.currentTimeMillis()
    val items: Samples = collection.mutable.LinkedHashMap.empty
    val layers = Trace("pass") {
      if (traced) { compilePass(items); simPass(items) }
      sparkPass(items)
      if (!traced) Map.empty[String, Double]
      else kernels.run() ++ Map("exec.store.read_mlines_per_s" -> storeReadRate())
    }
    val ms1 = System.currentTimeMillis()
    val heap = if (traced) heapPools.map(_.getPeakUsage.getUsed).sum / 1e6 else 0.0
    Trace.on = false
    Pass(no, items.toMap, traced, ms0, ms1, layers ++ Map("jvm.heap_peak_mb" -> heap))
  }

  // ------------------------------------------------------------ verify

  /** RefExec on each compile-set script's parallel regions equals RefExec
    * on its sequential regions, at widths 16 and 64, on small inputs. */
  private val VerifyScale = 0.1

  private def verify(): Unit = {
    simPass(collection.mutable.Map.empty)
    for (b <- Workloads.compileSet; width <- Widths) {
      attempted += 1
      try {
        val seqRegions = Frontend.compile(b.script).regions
        def small() = { val s = new Store(null); Workloads.register(s, b, VerifyScale, o.seed); s }
        val want = RefExec.runProgram(seqRegions, small())
        val got  = RefExec.runProgram(Compiler.pash(b.script, PashConfig(width)).parallel, small())
        if (got != want) fail(s"${b.name} w=$width: parallel RefExec differs from sequential")
      } catch { case NonFatal(e) => fail(s"${b.name} w=$width: $e") }
    }
  }

  // ------------------------------------------------------------ run

  def run(): Unit = {
    results.mkdirs()
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    spark
    val sessionS = (System.currentTimeMillis() - jvmStart) / 1e3
    // Input registration and reference outputs are repeated so that their
    // share of setup_s is a median. Warm-up passes follow: pass times keep
    // falling for about eight passes after the session starts (JIT).
    val reps = (1 to 3).map(_ => seconds(prepare())._2)
    val (warm, warmS) = seconds((1 to WarmupPasses).map(_ => pass(traced = false)))
    val setupS = sessionS + median(reps) + warmS

    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    val passes = ArrayBuffer.empty[Pass]
    val untracedFor = if (o.trace) o.seconds / 2 else o.seconds
    while (elapsed < untracedFor || passes.isEmpty) passes += pass(traced = false)
    if (o.trace) {
      // warm the layers that only traced passes run
      kernels.run(); compilePass(collection.mutable.Map.empty); simPass(collection.mutable.Map.empty)
      spark.sparkContext.addSparkListener(taskLog)
      while (elapsed < o.seconds || !passes.exists(_.traced)) passes += pass(traced = true)
      taskLog.drain()
    }
    val measuredS = elapsed
    val verifyS = seconds(verify())._2

    val untraced = passes.filterNot(_.traced).toList
    val traced   = passes.filter(_.traced).toList
    val e2e: Map[String, Double] =
      EndToEnd.map { case (k, kind) => k -> estimate(kind, untraced) }.toMap + ("setup_s" -> setupS)
    val layers =
      if (o.trace) layerMetrics(traced, untraced) else Map.empty[String, (Double, String)]

    val env = Map(
      "workload" -> w.name, "seed" -> o.seed, "scale" -> scale,
      "seconds" -> o.seconds, "trace" -> o.trace, "nproc" -> nproc,
      "java" -> System.getProperty("java.version"),
      "jvm" -> System.getProperty("java.vm.name"),
      "spark" -> spark.version, "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "git" -> o.git, "fingerprint" -> fingerprint)
    val metrics: List[(String, Double, String)] =
      if (o.trace) layers.toList.sortBy(_._1).map { case (k, (v, u)) => (k, v, u) }
      else (EndToEnd.map(_._1) :+ "setup_s").map(k => (k, e2e(k), "s"))

    report(env, untraced, metrics, measuredS, sessionS, reps, warm, warmS)
    writeResults(env, untraced, e2e, layers, reps, sessionS, warmS, verifyS)
    if (o.trace) {
      val pw = new PrintWriter(new File(results, s"${w.name}-seed${o.seed}-spans.jsonl"))
      try Trace.jsonLines(taskLog).foreach(pw.println) finally pw.close()
    }
    val pw = new PrintWriter(new File(o.work, "sim_actual.tsv"))
    try simActual.foreach { case ((s, c), v) => pw.println(s"$s\t$c\t$v") } finally pw.close()

    spark.stop()
    println(Json.obj(
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> Json.Raw(metrics.map { case (k, v, u) =>
        s"${Json.str(k)}: ${Json.obj("value" -> v, "unit" -> u)}" }.mkString("{", ", ", "}"))))
  }

  /** Sum over the items of `kind` of each item's lower decile over its
    * samples in `passes` (see [[Main.ItemQuantile]]). */
  private def estimate(kind: String, passes: List[Pass]): Double =
    passes.flatMap(_.items.keys).distinct.filter(_.startsWith(kind + ":"))
      .map(k => itemTime(k, passes)).sum

  private def itemTime(key: String, passes: List[Pass]): Double =
    quantile(passes.flatMap(_.items.getOrElse(key, Nil)), ItemQuantile)

  private def total(passes: List[Pass]): Double =
    EndToEnd.map { case (_, kind) => estimate(kind, passes) }.sum

  /** Per-layer metrics: medians over the traced passes. */
  private def layerMetrics(traced: List[Pass], untraced: List[Pass]): Map[String, (Double, String)] = {
    def perPass(name: String): List[Double] = {
      val m = Trace.perPass(name)
      traced.map(p => m.getOrElse(p.no, 0.0))
    }
    def med(name: String) = median(perPass(name))
    def fromPasses(key: String) = median(traced.map(_.layers(key)))
    val sparkWall = perPass("exec.spark.runProgram")
    val spark = traced.map { p =>
      val t = taskLog.within(p.startMs, p.endMs)
      (taskLog.jobsWithin(p.startMs, p.endMs).toDouble, taskLog.stagesWithin(p.startMs, p.endMs).toDouble,
       t.size.toDouble, t.map(_.runMs).sum / 1e3, t.map(_.cpuNs).sum / 1e9,
       t.map(_.gcMs).sum / 1e3, t.map(_.deserMs).sum / 1e3, t.map(_.resultBytes).sum / 1e6)
    }
    val busy = spark.zip(sparkWall).map { case (s, wall) => s._4 / (nproc * wall) }
    val m = Map.newBuilder[String, (Double, String)]
    m += "core.parse_ms" -> (med("compile.parse") * 1e3, "ms")
    m += "core.frontend_ms" -> (median(perPass("compile.frontend").zip(perPass("compile.parse"))
                                  .map { case (f, p) => f - p }) * 1e3, "ms")
    m += "core.transform_ms" -> (med("compile.transform") * 1e3, "ms")
    m += "core.backend_ms" -> (med("compile.backend") * 1e3, "ms")
    m += "core.nodes" -> (nodes.toDouble, "count")
    m += "core.fifos" -> (fifos.toDouble, "count")
    m += "core.compile_ms" -> (estimate("compile", traced) * 1e3, "ms")
    KernelProbe.metricNames.foreach(k => m += k -> (fromPasses(k), "Mlines/s"))
    m += "exec.spark.jobs" -> (median(spark.map(_._1)), "count")
    m += "exec.spark.stages" -> (median(spark.map(_._2)), "count")
    m += "exec.spark.tasks" -> (median(spark.map(_._3)), "count")
    m += "exec.spark.task_run_s" -> (median(spark.map(_._4)), "s")
    m += "exec.spark.task_cpu_s" -> (median(spark.map(_._5)), "s")
    m += "exec.spark.gc_s" -> (median(spark.map(_._6)), "s")
    m += "exec.spark.task_deser_s" -> (median(spark.map(_._7)), "s")
    m += "exec.spark.result_mb" -> (median(spark.map(_._8)), "MB")
    m += "exec.spark.busy_frac" -> (median(busy), "ratio")
    m += "exec.store.read_mlines_per_s" -> (fromPasses("exec.store.read_mlines_per_s"), "Mlines/s")
    m += "sim.build_ms" -> (med("sim.build") * 1e3, "ms")
    m += "sim.run_ms" -> (med("sim.run") * 1e3, "ms")
    m += "sim.runs" -> (simRuns.toDouble / traced.size, "count")
    m += "sim.deadlocks" -> (simDeadlocks.toDouble, "count")
    m += "sim.wall_s" -> (estimate("sim", traced), "s")
    m += "jvm.heap_peak_mb" -> (fromPasses("jvm.heap_peak_mb"), "MB")
    m += "trace.overhead_frac" -> (total(traced) / total(untraced) - 1, "ratio")
    m.result()
  }

  /** Node kinds of the width-`nproc` plan, e.g. `agg=1 cat=1 cmd=2 map=4`. */
  private def plan(p: Prepared): String =
    Backend.stats(p.parallel).byKind.toList.sorted.map { case (k, v) => s"$k=$v" }.mkString(" ")

  private def report(env: Map[String, Any], untraced: List[Pass],
                     metrics: List[(String, Double, String)], measuredS: Double,
                     sessionS: Double, reps: Seq[Double], warm: Seq[Pass], warmS: Double): Unit = {
    println(s"perfbench ${Json.value(env)}")
    println(f"set-up: session $sessionS%.2f s, inputs+references " +
            reps.map(r => f"$r%.2f").mkString(", ") + f" s, warm-up passes $warmS%.2f s")
    println(warm.map(p => f"${p.sum("par")}%.3f").mkString("warm-up par_s pass sums: ", " ", ""))
    println(f"passes: ${untraced.size} untraced in $measuredS%.1f s")
    println(f"${"script"}%-16s ${"seq_s"}%8s ${"par_s"}%8s ${"ref_s"}%8s  seq/par (width $nproc, Spark, measured)  parallel plan")
    prepared.foreach { p =>
      def time(kind: String) = itemTime(s"$kind:${p.b.name}", untraced)
      val (par, seq, ref) = (time("par"), time("seq"), time("ref"))
      println(f"${p.b.name}%-16s $seq%8.3f $par%8.3f $ref%8.3f  ${seq / par}%6.2f  ${plan(p)}")
    }
    val kinds = EndToEnd.toMap
    metrics.foreach { case (k, v, u) =>
      // per-pass sums, for a look at the spread within the run
      val sums = kinds.get(k).map { kind =>
        val v = untraced.map(_.sum(kind))
        f"median pass ${median(v)}%.3f, " + v.map(x => f"$x%.3f").mkString("pass sums: ", " ", "")
      }.getOrElse("")
      println(f"  $k%-34s $v%14.4f $u%-9s $sums")
    }
    failures.foreach(f => println(s"FAILED: $f"))
  }

  private def writeResults(env: Map[String, Any], untraced: List[Pass], e2e: Map[String, Double],
                           layers: Map[String, (Double, String)], reps: Seq[Double],
                           sessionS: Double, warmS: Double, verifyS: Double): Unit = {
    val scripts = prepared.map { p =>
      def time(kind: String) = itemTime(s"$kind:${p.b.name}", untraced)
      def samples(kind: String) = untraced.flatMap(_.items(s"$kind:${p.b.name}"))
      def med(kind: String) = median(samples(kind))
      p.b.name -> Map("par_s" -> time("par"), "seq_s" -> time("seq"), "ref_s" -> time("ref"),
                      "par_median_s" -> med("par"), "seq_median_s" -> med("seq"),
                      "ref_median_s" -> med("ref"),
                      "samples_s" -> EndToEnd.map { case (_, k) => k -> samples(k) }.toMap,
                      "plan" -> plan(p))
    }.toMap
    val body = Json.obj(
      "env" -> env, "attempted" -> attempted, "failed" -> failed, "failures" -> failures.toList,
      "passes" -> untraced.size, "session_s" -> sessionS, "setup_reps_s" -> reps.toList, "warmup_s" -> warmS, "verify_s" -> verifyS,
      "end_to_end" -> e2e, "per_script" -> scripts,
      "per_layer" -> layers.map { case (k, (v, _)) => k -> v })
    val pw = new PrintWriter(new File(results,
      s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json"))
    try pw.println(body) finally pw.close()
  }
}
