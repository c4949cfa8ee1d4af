package perfbench

import java.security.MessageDigest

import repro.bench.{Scripts, SynthText}
import repro.bench.Scripts.ScriptBench
import repro.core.Transform.{EagerOff, PashConfig}
import repro.exec.Store

/** A workload: scripts run on Spark (and by RefExec) at an input scale, and
  * simulated for `sim.wall_s`. `core.compile_ms` covers the whole corpus
  * (`Workloads.compileSet`) on every workload. */
final case class Workload(name: String, scripts: List[ScriptBench], scale: Int)

object Workloads {

  private def byName(names: String*): List[ScriptBench] = {
    val all = Scripts.all.map(b => b.name -> b).toMap
    names.toList.map(all)
  }

  // Scales keep one pass near two seconds on four cores, so a run takes
  // several passes. stateful exercises sort, aggregators and split;
  // stateless bypasses sort and split, so fixes to them must not move it.
  val all: List[Workload] = List(
    Workload("stateless", byName("nfa-regex", "unix50-01", "unix50-12", "unix50-13"), 16),
    Workload("stateful", byName("sort", "wf", "top-n", "spell"), 6),
  )

  /** All 44 evaluation scripts: Tab. 2's compile column, and the scripts
    * whose parallel plans `verify` checks at widths 16 and 64. */
  val compileSet: List[ScriptBench] = Scripts.all

  def get(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** The Fig. 9 lattice subset that `sim_s` covers: the two curves the
    * paper compares (PaSh and no eager), at width 16. */
  val simConfigs: List[(String, PashConfig)] = List(
    "pash-16"     -> PashConfig(16),
    "no-eager-16" -> PashConfig(16, split = false, eager = EagerOff),
  )

  /** A generated input file: `perK` lines per unit of scale, line `i` is
    * `gen(fileSeed)(i)`. */
  private final case class Input(file: String, perK: Long, baseSeed: Long,
                                 gen: Long => Long => String)

  private def text(file: String, perK: Long, baseSeed: Long) =
    Input(file, perK, baseSeed, SynthText.textLine)

  // The same files, line counts and generator seeds as each script's own
  // `Scripts` setup; the benchmark seed shifts every generator seed, and
  // seed 0 reproduces `Scripts` exactly.
  private val inputs: Map[String, List[Input]] = Map(
    "nfa-regex"      -> List(text("in.txt", 1000, 11)),
    "sort"           -> List(text("in.txt", 1000, 12)),
    "top-n"          -> List(text("in.txt", 1000, 13)),
    "wf"             -> List(text("in.txt", 1000, 14)),
    "spell"          -> List(text("in.txt", 1000, 15)),
    "difference"     -> List(text("a.txt", 500, 16), text("b.txt", 500, 17)),
    "set-difference" -> List(text("a.txt", 500, 18), text("b.txt", 500, 19)),
    "bi-grams"       -> List(text("in.txt", 1000, 20)),
    "sort-sort"      -> List(text("in.txt", 1000, 21)),
    "bio"            -> List(Input("reads.fastq", 1000, 23, SynthText.fastqLine)),
  ) ++ Scripts.unix50.map(_.name -> List(text("unix50.txt", 1000, 22)))

  private val usesDict = Set("spell") ++ Scripts.unix50.map(_.name)

  private def fileSeed(base: Long, seed: Long): Long = base + seed * 1000003L

  /** Register `b`'s inputs at `scale` thousand lines in `store`; returns the names of the
    * generated files. Scripts whose inputs are URL fallbacks (noaa,
    * wikipedia) keep their own `Scripts` setup and ignore the seed. */
  def register(store: Store, b: ScriptBench, scale: Double, seed: Long): List[String] =
    if (b.name == "shortest-scripts") {
      val n = math.max(40, (4 * scale).toInt)
      store.add("scripts.txt", n.toLong, i => s"script-$i.sh")
      (0 until n).foreach(j =>
        store.addLines(s"script-$j.sh", SynthText.scriptFile(j + (seed * n).toInt)))
      "scripts.txt" :: (0 until n).map(j => s"script-$j.sh").toList
    } else inputs.get(b.name) match {
      case Some(ins) =>
        ins.foreach(in => store.add(in.file, (in.perK * scale).toLong, in.gen(fileSeed(in.baseSeed, seed))))
        if (usesDict(b.name)) store.addLines("dict.txt", SynthText.dictionary())
        ins.map(_.file) ++ (if (usesDict(b.name)) List("dict.txt") else Nil)
      case None =>
        b.setup(store, math.max(1, scale.toInt)); Nil
    }

  /** The first generated text file of the workload's first Spark script:
    * the corpus the kernel probe derives its inputs from. */
  def mainText(w: Workload, scale: Int, seed: Long): (Long, Long => String) = {
    val in = inputs(w.scripts.head.name).head
    (in.perK * scale, in.gen(fileSeed(in.baseSeed, seed)))
  }

  /** SHA-256 over the workload's script texts and every generated input
    * line, so an edit to `Scripts` or `SynthText` shows as a changed
    * workload rather than as a speed-up. */
  def fingerprint(w: Workload, scale: Int, seed: Long): String = {
    val md = MessageDigest.getInstance("SHA-256")
    def put(s: String): Unit = { md.update(s.getBytes("UTF-8")); md.update('\n'.toByte) }
    (w.scripts ++ compileSet).foreach(b => put(b.script))
    w.scripts.foreach { b =>
      val store = new Store(null)
      register(store, b, scale, seed).foreach(f => store.fetch(f).foreach(put))
    }
    md.digest().map("%02x".format(_)).mkString.take(16)
  }
}
