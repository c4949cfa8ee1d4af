package perfbench

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.Annotations.Resolved
import repro.core.Dfg.{CmdOp, SrcFile}
import repro.core.{Frontend, PClass}
import repro.exec.{RefExec, Store}

/** Kernel throughput, called from outside: each command variant runs on the
  * lines its upstream stage produces, computed once by `RefExec` over the
  * workload's own main text (`x.txt`). Aggregators merge the `nproc` chunk
  * outputs of their map kernel, as the parallel plan does. */
final class KernelProbe(xLines: Long, xGen: Long => String, nproc: Int) {
  import KernelProbe._

  private val store = new Store(null)
  store.add("x.txt", xLines, xGen)
  store.addLines("dict.txt", repro.bench.SynthText.dictionary())
  RefExec.runProgram(Frontend.compile(prep).regions, store)

  private val fetch: String => Vector[String] = store.fetch

  /** The single command of `cmd`, with its static inputs fetched. */
  private def resolve(cmd: String): (Resolved, Ctx) = {
    val g = Frontend.compile(cmd).regions.head
    val node = g.topo.last
    val r = node.op match {
      case CmdOp(r) => r
      case other    => throw new IllegalStateException(s"$cmd compiled to $other")
    }
    val statics = node.ins.map(g.edges).filter(_.static).map(_.src match {
      case Some(SrcFile(f)) => store.fetch(f)
      case other            => throw new IllegalStateException(s"$cmd: static $other")
    }).toList
    (r, Ctx(statics, fetch))
  }

  private val kernelRuns: List[(String, Long, () => Unit)] = commands.map {
    case (variant, cmd, files) =>
      val (r, ctx) = resolve(cmd)
      val streams  = files.map(store.fetch)
      val run: () => Unit = Kernels.stateless(r) match {
        case Some(mk) if r.cls == PClass.Stateless =>
          val lines = streams.head
          () => { val f = mk(ctx); lines.foreach(f) }
        case _ =>
          val k = Kernels.whole(r)(ctx)
          () => k(streams)
      }
      (variant, streams.map(_.size.toLong).sum, run)
  }

  private val aggRuns: List[(String, Long, () => Unit)] = aggregators.map {
    case (key, cmd, file) =>
      val (r, ctx) = resolve(cmd)
      require(r.agg.contains(key), s"$cmd aggregates with ${r.agg}, not $key")
      val in = store.fetch(file)
      val n  = in.size.toLong
      val parts = List.tabulate(nproc) { i =>
        Kernels.whole(r)(ctx)(List(in.slice((n * i / nproc).toInt, (n * (i + 1) / nproc).toInt)))
      }
      (key, parts.map(_.size.toLong).sum, () => { Kernels.aggN(key, r, parts); () })
  }

  /** Million input lines per second of every variant, one timing each. */
  def run(): Map[String, Double] =
    kernelRuns.map { case (v, lines, f) => s"cmds.$v.mlines_per_s" -> Trace(s"cmds.$v")(rate(lines, f)) }.toMap ++
      aggRuns.map { case (k, lines, f) => s"cmds.agg.$k.mlines_per_s" -> Trace(s"cmds.agg.$k")(rate(lines, f)) }
}

object KernelProbe {

  /** Upstream stages, written as files the measured commands read. */
  val prep: String =
    """cat x.txt | tr A-Z a-z > lower.txt
cat x.txt | tr -cs A-Za-z "\n" | tr A-Z a-z > words.txt
cat words.txt | sort > sorted.txt
cat sorted.txt | uniq -c > counts.txt
cat words.txt | sort -u > uwords.txt
tail -n +2 words.txt > next.txt"""

  /** (variant, command, stream input files in order). */
  val commands: List[(String, String, List[String])] = List(
    ("tr",      "tr A-Z a-z",                    List("x.txt")),
    ("tr-cs",   """tr -cs A-Za-z "\n"""",        List("x.txt")),
    ("grep",    "grep the",                      List("lower.txt")),
    ("grep-E",  """grep -E "(th|t|h)+e"""",      List("lower.txt")),
    ("cut",     """cut -d " " -f 1""",           List("x.txt")),
    ("wc",      "wc -l",                         List("x.txt")),
    ("sort",    "sort",                          List("lower.txt")),
    ("sort-rn", "sort -rn",                      List("counts.txt")),
    ("sort-u",  "sort -u",                       List("words.txt")),
    ("uniq",    "uniq",                          List("sorted.txt")),
    ("uniq-c",  "uniq -c",                       List("sorted.txt")),
    ("comm",    "comm -13 dict.txt -",           List("uwords.txt")),
    ("paste",   "paste words.txt next.txt",      List("words.txt", "next.txt")),
    ("diff",    "diff sorted.txt uwords.txt",    List("sorted.txt", "uwords.txt")),
  )

  /** (aggregator key, map command, input file). */
  val aggregators: List[(String, String, String)] = List(
    ("sort-m", "sort",        "lower.txt"),
    ("uniq",   "uniq",        "sorted.txt"),
    ("uniq-c", "uniq -c",     "sorted.txt"),
    ("sum",    "grep -c the", "lower.txt"),
    ("wc",     "wc -l",       "x.txt"),
  )

  def metricNames: List[String] =
    commands.map(c => s"cmds.${c._1}.mlines_per_s") ++
      aggregators.map(a => s"cmds.agg.${a._1}.mlines_per_s")

  /** Repeat `f` until 20 ms have passed; million lines per second. */
  private def rate(lines: Long, f: () => Unit): Double = {
    val t0 = System.nanoTime()
    var reps = 0
    while (reps == 0 || System.nanoTime() - t0 < 20000000L) { f(); reps += 1 }
    lines * reps / ((System.nanoTime() - t0) / 1e9) / 1e6
  }
}
