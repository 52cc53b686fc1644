#!/usr/bin/env python3
"""caraoke-lint: repo-specific invariant checker for the Caraoke codebase.

Generic tools (clang-tidy, sanitizers) cannot know this repo's contracts.
This linter enforces the ones the architecture depends on:

  randomness   No ambient entropy outside common/rng: rand()/srand,
               std::random_device, or raw <random> engine construction
               anywhere else in src/ breaks seeded replay.
  wallclock    No clock reads in src/{dsp,phy,sim,core}: simulation and
               signal-processing code runs on caller-provided simulated
               time only, so a run is a pure function of its seed. That
               includes obs::ObsSpan and obs::monotonicSeconds; hot-path
               stages are timed by CARAOKE_PROF_SCOPE alone.
  wiremagic    Every wire-format magic constant is unique (a collision
               would make frame types indistinguishable on the wire),
               and every file that encodes a magic-framed message also
               computes a CRC trailer (corruption must be *detected*,
               not discovered by parse luck).
  wireversion  The wire structs serialized by net/framing (CountReport,
               SightingReport, DecodeReport) are fingerprinted by field
               count against a baked-in baseline. Growing one without
               also minting a new envelope version magic (and then
               refreshing the baseline here) is exactly how a silent
               layout skew ships, so both halves of the pairing are
               enforced.
  metricnames  Metric/event/span name literals follow the dotted
               lowercase grammar (`net.backend.frames_ingested`), and no
               metric name is registered at more than one source
               location or under two different kinds — exposition and
               dashboards key on exact names. `fleet.*` names are
               additionally pinned to src/obs/fleet.* — the fleet
               rollup registry is the one place city-scope metrics may
               be minted, so a daemon can never shadow the collector.
  profstage    Hot-path profiler stage names live in one registry
               (src/obs/prof_stages.hpp): each follows the dotted
               lowercase grammar, no two constants share a name (stage
               names key flamegraph frames and benchgate counter
               budgets), every CARAOKE_PROF_SCOPE site in src/ names
               its stage through a registry constant rather than a raw
               string literal, and the registry matches a baked-in
               baseline so adding a stage is an explicit, reviewed act
               (the same pairing the wireversion baseline uses).
  units        Frequency/time literals in src/{dsp,phy} go through
               common/units.hpp helpers (MHz(915.0), usec(512)) instead
               of raw scientific notation — the 914.3–915.5 MHz CFO
               math is exactly where a silent kHz/MHz slip hides.
  mutexowner   Every `std::mutex` member declared in src/ is referenced
               by at least one CARAOKE_GUARDED_BY annotation in the
               same file — an unreferenced mutex is a lock that guards
               nothing the analyzer (tools/lockcheck.py) can check.
               Function-local `static std::mutex` is exempt (no member
               to annotate).
  buildtree    No generated build tree is ever committed: a tracked path
               living under a build*/ directory (or a CMake cache /
               object-file artifact anywhere) fails the lint. Added
               after an 827-file build-review/ tree slipped into git.

Suppression: append `// caraoke-lint: allow(<rule>): <reason>` to the
offending line. A marker without a reason is itself a finding — the
policy is the same as NOLINT-with-reason in .clang-tidy.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
Run as a ctest: `ctest -L lint` (registered in tests/CMakeLists.txt).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from collections import defaultdict

# ----------------------------------------------------------------- util --

ALLOW_RE = re.compile(
    r"//\s*caraoke-lint:\s*allow\((?P<rule>[a-z]+)\)(?P<reason>:.*)?")

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


class Finding:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def strip_line_comment(line):
    """Drop a trailing // comment (naive but fine for this codebase)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def allowed(line, rule, findings, path, lineno):
    """True when the line carries a well-formed allow marker for `rule`.

    A marker with no reason text is reported as its own finding: the
    suppression policy requires a justification.
    """
    m = ALLOW_RE.search(line)
    if not m or m.group("rule") != rule:
        return False
    reason = (m.group("reason") or "").lstrip(":").strip()
    if not reason:
        findings.append(Finding(
            rule, path, lineno,
            "allow marker without a reason; write "
            f"`// caraoke-lint: allow({rule}): <why>`"))
    return True


def iter_source_lines(files):
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            yield path, lineno, line


# ---------------------------------------------------------------- rules --

RANDOMNESS_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand)\s*\("
    r"|std::random_device|random_device\s+\w"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\d+(?:_48)?|knuth_b)\s+\w")


def check_randomness(files, rel, findings):
    """Entropy may only enter through common/rng's injected Rng."""
    for path, lineno, line in iter_source_lines(files):
        rp = rel(path)
        if rp.startswith("src/common/rng"):
            continue
        code = line if ALLOW_RE.search(line) else strip_line_comment(line)
        if not RANDOMNESS_RE.search(strip_line_comment(code)):
            continue
        if allowed(line, "randomness", findings, rp, lineno):
            continue
        findings.append(Finding(
            "randomness", rp, lineno,
            "ambient randomness outside common/rng — draw from an "
            "injected caraoke::Rng instead"))


WALLCLOCK_RE = re.compile(
    r"system_clock|steady_clock|high_resolution_clock"
    r"|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b"
    r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)|\bclock\s*\(\s*\)")

# obs::ObsSpan and obs::monotonicSeconds read steady_clock too; spans
# time request-level work in apps/ and net/ only.
OBS_CLOCK_RE = re.compile(r"\b(?:ObsSpan|monotonicSeconds)\b")

DETERMINISTIC_DIRS = ("src/dsp/", "src/phy/", "src/sim/", "src/core/")


def check_wallclock(files, rel, findings):
    """Replay determinism: no real-time reads in simulation/DSP code."""
    for path, lineno, line in iter_source_lines(files):
        rp = rel(path)
        if not rp.startswith(DETERMINISTIC_DIRS):
            continue
        code = strip_line_comment(line)
        if WALLCLOCK_RE.search(code):
            message = ("clock read in deterministic code — time must be "
                       "caller-provided simulated seconds")
        elif OBS_CLOCK_RE.search(code):
            message = ("obs span/clock in deterministic code — time a "
                       "hot-path stage with CARAOKE_PROF_SCOPE instead")
        else:
            continue
        if allowed(line, "wallclock", findings, rp, lineno):
            continue
        findings.append(Finding("wallclock", rp, lineno, message))


MAGIC_DEF_RE = re.compile(
    r"constexpr\s+std::uint16_t\s+(?P<name>k\w*Magic\w*)\s*=\s*"
    r"(?P<value>0[xX][0-9a-fA-F]+)")
MAGIC_ENCODE_RE = re.compile(r"\bu16\s*\(\s*(?:\w+::)*k\w*Magic\w*\s*\)")


def check_wiremagic(files, rel, findings):
    """Wire magics unique; every encoder file computes a CRC trailer."""
    by_value = defaultdict(list)          # value -> [(path, lineno, name)]
    encoders = defaultdict(list)          # path -> [lineno]
    has_crc = set()                       # paths referencing crc32
    for path, lineno, line in iter_source_lines(files):
        rp = rel(path)
        code = strip_line_comment(line)
        m = MAGIC_DEF_RE.search(code)
        if m:
            by_value[int(m.group("value"), 16)].append(
                (rp, lineno, m.group("name")))
        if MAGIC_ENCODE_RE.search(code):
            encoders[rp].append(lineno)
        if "crc32" in code:
            has_crc.add(rp)

    for value, sites in sorted(by_value.items()):
        if len(sites) > 1:
            where = ", ".join(f"{p}:{n} ({name})" for p, n, name in sites)
            findings.append(Finding(
                "wiremagic", sites[0][0], sites[0][1],
                f"magic 0x{value:04X} defined more than once: {where}"))

    for rp, linenos in sorted(encoders.items()):
        if rp in has_crc:
            continue
        findings.append(Finding(
            "wiremagic", rp, linenos[0],
            "file encodes a magic-framed message but never computes a "
            "crc32 trailer — corruption would go undetected"))


# The structs that ride inside batch envelopes, with the field counts and
# frame-magic count (kMagic/kMagicV2/kMagicV3 + kAckMagic, plus the
# durability layer's kWalMagic + kSnapshotMagic) current as of wire v3.
# A PR that grows a wire struct must mint a new version magic AND update
# this baseline — the second half is the explicit acknowledgement that
# old decoders were considered.
WIREVERSION_BASELINE = {
    "structs": {"CountReport": 5, "SightingReport": 8, "DecodeReport": 6},
    "magics": 6,
}

WIRE_STRUCT_RE_TEMPLATE = r"struct\s+%s\s*\{(?P<body>.*?)\n\};"


def count_struct_fields(text, name):
    """Field count of `struct name { ... };` in text; None when absent.

    A field is any non-comment statement line ending in ';' that is not
    a function declaration — the wire structs are plain aggregates, so
    this is exact for them.
    """
    m = re.search(WIRE_STRUCT_RE_TEMPLATE % name, text, re.S)
    if m is None:
        return None
    fields = 0
    for line in m.group("body").splitlines():
        code = strip_line_comment(line).strip()
        if code.endswith(";") and "(" not in code:
            fields += 1
    return fields


def check_wireversion(files, rel, findings):
    """Wire-struct layout drift must come with an envelope version bump."""
    struct_fields = {}
    struct_sites = {}
    magic_count = 0
    for path in files:
        rp = rel(path)
        if not rp.startswith("src/net/"):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        for name in WIREVERSION_BASELINE["structs"]:
            count = count_struct_fields(text, name)
            if count is not None:
                struct_fields[name] = count
                struct_sites[name] = rp
        for lineno, line in enumerate(text.splitlines(), start=1):
            if MAGIC_DEF_RE.search(strip_line_comment(line)):
                magic_count += 1

    magics_bumped = magic_count != WIREVERSION_BASELINE["magics"]
    drifted = False
    for name, expected in sorted(WIREVERSION_BASELINE["structs"].items()):
        actual = struct_fields.get(name)
        if actual is None:
            findings.append(Finding(
                "wireversion", "src/net", 1,
                f"wire struct {name} not found — if it moved or was "
                "renamed, update WIREVERSION_BASELINE in caraoke_lint.py"))
            continue
        if actual == expected:
            continue
        drifted = True
        site = struct_sites[name]
        if magics_bumped:
            findings.append(Finding(
                "wireversion", site, 1,
                f"{name} has {actual} fields (baseline {expected}) and a "
                "new envelope magic exists — refresh WIREVERSION_BASELINE "
                "in caraoke_lint.py to acknowledge the new wire version"))
        else:
            findings.append(Finding(
                "wireversion", site, 1,
                f"{name} has {actual} fields (baseline {expected}) but the "
                "envelope version magics are unchanged — a changed layout "
                "needs a new kMagicVn so old decoders are never fed new "
                "bytes (then update WIREVERSION_BASELINE)"))
    if magics_bumped and not drifted:
        findings.append(Finding(
            "wireversion", "src/net", 1,
            f"{magic_count} envelope/frame magics (baseline "
            f"{WIREVERSION_BASELINE['magics']}) with unchanged wire "
            "structs — refresh WIREVERSION_BASELINE in caraoke_lint.py "
            "to acknowledge the new frame type"))


NAME_GRAMMAR_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
METRIC_REG_RE = re.compile(
    r"\.(?P<kind>counter|gauge|histogram)\s*\(\s*\"(?P<name>[^\"]+)\"")
EVENT_EMIT_RE = re.compile(
    r"(?:emitEvent|recordEvent|ObsSpan\b[^(]*)\(\s*\"(?P<name>[^\"]+)\"")


def check_metricnames(files, rel, findings):
    """Dotted-lowercase grammar; one registration site and kind per name."""
    registrations = defaultdict(list)     # name -> [(kind, path, lineno)]
    for path, lineno, line in iter_source_lines(files):
        rp = rel(path)
        code = strip_line_comment(line)
        for m in METRIC_REG_RE.finditer(code):
            name, kind = m.group("name"), m.group("kind")
            if not NAME_GRAMMAR_RE.match(name):
                if not allowed(line, "metricnames", findings, rp, lineno):
                    findings.append(Finding(
                        "metricnames", rp, lineno,
                        f"metric name '{name}' violates the dotted "
                        "lowercase grammar (e.g. net.backend.frames)"))
            if (name.startswith("fleet.")
                    and not rp.startswith("src/obs/fleet.")):
                if not allowed(line, "metricnames", findings, rp, lineno):
                    findings.append(Finding(
                        "metricnames", rp, lineno,
                        f"fleet-plane metric '{name}' registered outside "
                        "src/obs/fleet.* — fleet.* names belong to the "
                        "FleetCollector rollup registry"))
            if (name.startswith("expo.")
                    and not rp.startswith("src/obs/expo.")):
                if not allowed(line, "metricnames", findings, rp, lineno):
                    findings.append(Finding(
                        "metricnames", rp, lineno,
                        f"exposition self-metric '{name}' registered "
                        "outside src/obs/expo.* — expo.* names belong to "
                        "the ExpoServer self-metrics family"))
            registrations[name].append((kind, rp, lineno))
        for m in EVENT_EMIT_RE.finditer(code):
            name = m.group("name")
            if not NAME_GRAMMAR_RE.match(name):
                if not allowed(line, "metricnames", findings, rp, lineno):
                    findings.append(Finding(
                        "metricnames", rp, lineno,
                        f"event/span name '{name}' violates the dotted "
                        "lowercase grammar"))

    for name, sites in sorted(registrations.items()):
        kinds = {kind for kind, _, _ in sites}
        if len(kinds) > 1:
            where = ", ".join(f"{p}:{n} ({k})" for k, p, n in sites)
            findings.append(Finding(
                "metricnames", sites[0][1], sites[0][2],
                f"metric '{name}' registered under conflicting kinds: "
                f"{where}"))
        if len(sites) > 1:
            where = ", ".join(f"{p}:{n}" for _, p, n in sites)
            findings.append(Finding(
                "metricnames", sites[0][1], sites[0][2],
                f"metric '{name}' registered at {len(sites)} sites "
                f"({where}) — resolve the handle once and share it"))


# The profiler stage registry (src/obs/prof_stages.hpp) as of PR 6.
# A PR that adds/renames a stage must update prof_stages.hpp AND this
# baseline — stage names key folded flamegraph frames, the /profile
# JSON, and benchgate's per-burst counter budgets, so a silent rename
# breaks every committed BENCH_*.json trend.
PROFSTAGE_BASELINE = {
    "dsp.window", "dsp.fft", "dsp.peak", "dsp.spectrum", "dsp.goertzel",
    "phy.cfo", "phy.demod", "phy.manchester",
    "core.analyze", "core.count", "core.multi_count", "core.decode",
    "core.coherent_sum", "core.chase", "core.timing_search",
}

PROFSTAGE_REGISTRY = "src/obs/prof_stages.hpp"
PROFSTAGE_DEF_RE = re.compile(
    r"inline\s+constexpr\s+char\s+(?P<const>k\w+)\s*\[\s*\]\s*=\s*"
    r"\"(?P<name>[^\"]*)\"")
PROFSTAGE_SCOPE_RE = re.compile(r"\bCARAOKE_PROF_SCOPE\s*\(\s*(?P<arg>[^)]*)\)")


def check_profstage(files, rel, findings):
    """One stage registry, dotted-lowercase, unique, baseline-acknowledged;
    scope macros reference registry constants, never raw literals."""
    registered = {}                        # stage name -> (path, lineno)
    for path, lineno, line in iter_source_lines(files):
        rp = rel(path)
        code = strip_line_comment(line)
        if rp == PROFSTAGE_REGISTRY:
            m = PROFSTAGE_DEF_RE.search(code)
            if m is None:
                continue
            name = m.group("name")
            if not NAME_GRAMMAR_RE.match(name):
                findings.append(Finding(
                    "profstage", rp, lineno,
                    f"stage name '{name}' violates the dotted lowercase "
                    "grammar (e.g. dsp.fft)"))
            if name in registered:
                prev_path, prev_line = registered[name]
                findings.append(Finding(
                    "profstage", rp, lineno,
                    f"stage name '{name}' already declared at "
                    f"{prev_path}:{prev_line} — frames with one name "
                    "would merge in every flamegraph"))
            else:
                registered[name] = (rp, lineno)
            continue
        for m in PROFSTAGE_SCOPE_RE.finditer(code):
            arg = m.group("arg").strip()
            if arg.startswith('"'):
                if allowed(line, "profstage", findings, rp, lineno):
                    continue
                findings.append(Finding(
                    "profstage", rp, lineno,
                    f"CARAOKE_PROF_SCOPE({arg}) uses a raw string literal "
                    "— declare the stage in obs/prof_stages.hpp and "
                    "reference the constant"))

    if not registered:
        findings.append(Finding(
            "profstage", PROFSTAGE_REGISTRY, 1,
            "stage registry not found or empty — if it moved, update "
            "PROFSTAGE_REGISTRY in caraoke_lint.py"))
        return
    names = set(registered)
    for name in sorted(names - PROFSTAGE_BASELINE):
        rp, lineno = registered[name]
        findings.append(Finding(
            "profstage", rp, lineno,
            f"stage '{name}' is not in PROFSTAGE_BASELINE — new stages "
            "need a caraoke_lint.py baseline refresh (the explicit "
            "acknowledgement that dashboards and BENCH trends were "
            "considered)"))
    for name in sorted(PROFSTAGE_BASELINE - names):
        findings.append(Finding(
            "profstage", PROFSTAGE_REGISTRY, 1,
            f"baseline stage '{name}' disappeared from the registry — "
            "a rename/removal must refresh PROFSTAGE_BASELINE in "
            "caraoke_lint.py (committed flamegraphs and BENCH_*.json "
            "reference it)"))


# Frequency-or-time magnitudes: kHz/MHz/GHz (e3/e6/e9) and ms/us
# (e-3/e-6). Dimensionless epsilons (1e-12, 1e-15, ...) are untouched.
UNITS_RE = re.compile(r"(?<![\w.])\d+(?:\.\d+)?e[+]?(?:3|6|9)\b"
                      r"|(?<![\w.])\d+(?:\.\d+)?e-(?:3|6)\b")
UNITS_HELPER_RE = re.compile(
    r"\b(?:kHz|MHz|GHz|usec|msec|sec|feet|inches|cm|mph|mW|uW)\s*\(")
UNITS_DIRS = ("src/dsp/", "src/phy/")


def check_units(files, rel, findings):
    """Physical literals in DSP/PHY code go through common/units.hpp."""
    for path, lineno, line in iter_source_lines(files):
        rp = rel(path)
        if not rp.startswith(UNITS_DIRS):
            continue
        code = strip_line_comment(line)
        if not UNITS_RE.search(code):
            continue
        if UNITS_HELPER_RE.search(code):
            continue  # already expressed through a units helper
        if allowed(line, "units", findings, rp, lineno):
            continue
        findings.append(Finding(
            "units", rp, lineno,
            "raw frequency/time literal — use common/units.hpp "
            "(MHz(915.0), usec(512), msec(1)) so the magnitude is "
            "readable and greppable"))


# A std::mutex member nobody annotates against is a guard with no duty
# roster — lockcheck.py (the lock-discipline analyzer) can only verify
# accesses for members tied to a mutex via CARAOKE_GUARDED_BY. `static`
# declarations (function-local mutexes like log.cpp's logMutex()) are
# not members and are exempt.
MUTEXOWNER_DECL_RE = re.compile(
    r"(?:\bmutable\s+)?std::(?:recursive_)?mutex\s+(\w+)\s*;")


def check_mutexowner(files, rel, findings):
    """Member mutexes in src/ must be referenced by CARAOKE_GUARDED_BY."""
    for path in files:
        rp = rel(path)
        if not rp.startswith("src/"):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            code = strip_line_comment(line)
            m = MUTEXOWNER_DECL_RE.search(code)
            if not m or re.search(r"\bstatic\b", code):
                continue
            name = m.group(1)
            if re.search(
                    rf"CARAOKE_GUARDED_BY\(\s*{re.escape(name)}\s*\)", text):
                continue
            if allowed(line, "mutexowner", findings, rp, lineno):
                continue
            findings.append(Finding(
                "mutexowner", rp, lineno,
                f"std::mutex member '{name}' has no CARAOKE_GUARDED_BY "
                "referencing it — annotate the state it protects "
                "(src/common/thread_annotations.hpp) so lockcheck.py "
                "can enforce the discipline"))


# Build-tree artifacts that must never be tracked: anything inside a
# build*/ directory, plus CMake caches and compiled objects wherever
# they sit (a generated tree renamed to dodge the directory pattern
# still trips on its CMakeCache.txt / *.o contents), plus *.tmp.json —
# benchgate's scratch outputs (only reviewed BENCH_PRn.json baselines
# belong in history).
BUILD_TREE_RE = re.compile(
    r"(^|/)build[^/]*/"
    r"|(^|/)CMakeCache\.txt$"
    r"|(^|/)CMakeFiles/"
    r"|(^|/)cmake_install\.cmake$"
    r"|(^|/)CTestTestfile\.cmake$"
    r"|\.tmp\.json$"
    r"|\.(?:o|obj|a|so|gcda|gcno)$")


def is_build_tree_path(path):
    """True when a repo-relative path is a generated build artifact."""
    return bool(BUILD_TREE_RE.search(path))


def check_buildtree(files, rel, findings):
    """No tracked path may be a generated build artifact.

    Consults `git ls-files` (the linter's source-file walk skips build
    trees by construction, so tracked-ness is the property to check).
    Silently skips when git is unavailable or the root is not a work
    tree — the other rules still run in that case.
    """
    del files, rel  # operates on the git index, not the source walk
    import subprocess
    try:
        out = subprocess.run(
            ["git", "-C", str(CHECK_ROOT), "ls-files"],
            capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return
    if out.returncode != 0:
        return
    for tracked in out.stdout.splitlines():
        if is_build_tree_path(tracked):
            findings.append(Finding(
                "buildtree", tracked, 1,
                "tracked build-tree artifact — `git rm -r --cached` it "
                "and keep build*/ in .gitignore"))


# Root consulted by check_buildtree; set by main() before rules run.
CHECK_ROOT = pathlib.Path(".")


RULES = {
    "randomness": check_randomness,
    "wallclock": check_wallclock,
    "wiremagic": check_wiremagic,
    "wireversion": check_wireversion,
    "metricnames": check_metricnames,
    "profstage": check_profstage,
    "units": check_units,
    "mutexowner": check_mutexowner,
    "buildtree": check_buildtree,
}


# ------------------------------------------------------------- selftest --

SELFTEST_CASES = [
    # (rule, relative path, line, should_flag)
    ("randomness", "src/core/foo.cpp", "int x = rand();", True),
    ("randomness", "src/core/foo.cpp", "std::random_device rd;", True),
    ("randomness", "src/core/foo.cpp", "std::mt19937_64 eng(seed);", True),
    ("randomness", "src/common/rng.cpp", "std::mt19937_64 eng_(seed);", False),
    ("randomness", "src/core/foo.cpp", "rng.uniform(0.0, 1.0);", False),
    ("randomness", "src/core/foo.cpp",
     "int x = rand();  // caraoke-lint: allow(randomness): legacy shim",
     False),
    ("wallclock", "src/sim/foo.cpp",
     "auto t = std::chrono::steady_clock::now();", True),
    ("wallclock", "src/dsp/foo.cpp", "time(nullptr);", True),
    ("wallclock", "src/obs/trace.cpp",
     "auto t = std::chrono::steady_clock::now();", False),
    ("wallclock", "src/sim/foo.cpp", "double timeOfArrival = 3.0;", False),
    ("wallclock", "src/core/foo.cpp",
     'obs::ObsSpan span("counter.single_shot", histogram);', True),
    ("wallclock", "src/dsp/foo.cpp",
     "const double t0 = obs::monotonicSeconds();", True),
    ("wallclock", "src/apps/foo.cpp",
     'obs::ObsSpan span("daemon.count", histogram);', False),
    ("metricnames", "src/core/foo.cpp",
     'registry.counter("BadName");', True),
    ("metricnames", "src/core/foo.cpp",
     'registry.counter("good.dotted_name");', False),
    ("metricnames", "src/apps/foo.cpp",
     'registry.counter("fleet.rogue.total");', True),
    ("metricnames", "src/obs/fleet.cpp",
     'registry_.counter("fleet.scrapes.ok");', False),
    ("metricnames", "src/apps/foo.cpp",
     'registry.counter("expo.rogue_total");', True),
    ("metricnames", "src/obs/expo.cpp",
     'reg.counter("expo.connections_shed");', False),
    ("units", "src/phy/foo.cpp", "double f = 914.3e6;", True),
    ("units", "src/phy/foo.cpp", "double f = MHz(914.3);", False),
    ("units", "src/dsp/foo.cpp", "double eps = 1e-12;", False),
    ("units", "src/net/foo.cpp", "double f = 914.3e6;", False),
    ("mutexowner", "src/net/foo.hpp", "mutable std::mutex mutex_;", True),
    ("mutexowner", "src/net/foo.hpp",
     "std::mutex mutex_;\n  int hits_ CARAOKE_GUARDED_BY(mutex_) = 0;",
     False),
    ("mutexowner", "src/common/foo.cpp", "static std::mutex m;", False),
    ("mutexowner", "tests/foo.cpp", "std::mutex mutex_;", False),
    ("mutexowner", "src/net/foo.hpp",
     "std::mutex mu_;  // caraoke-lint: allow(mutexowner): handed to "
     "std::condition_variable only",
     False),
]


class FakePath:
    """Stands in for pathlib.Path in selftest: one line of content."""

    def __init__(self, rel, line):
        self.rel = rel
        self.line = line

    def read_text(self, encoding="utf-8"):
        return self.line


def selftest():
    failures = []
    for rule, rel_path, line, should_flag in SELFTEST_CASES:
        findings = []
        fake = FakePath(rel_path, line)
        RULES[rule]([fake], lambda p: p.rel, findings)
        hits = [f for f in findings if f.rule == rule]
        if bool(hits) != should_flag:
            verb = "should have flagged" if should_flag else "wrongly flagged"
            failures.append(f"selftest [{rule}] {verb}: {line!r}")

    # Cross-file wiremagic cases need two files.
    findings = []
    dup = [FakePath("src/net/a.hpp",
                    "constexpr std::uint16_t kAMagic = 0xCA0D;"),
           FakePath("src/net/b.hpp",
                    "constexpr std::uint16_t kBMagic = 0xCA0D;")]
    check_wiremagic(dup, lambda p: p.rel, findings)
    if not findings:
        failures.append("selftest [wiremagic] missed a duplicate magic")

    findings = []
    nocrc = [FakePath("src/net/enc.cpp", "w.u16(kAckMagic);")]
    check_wiremagic(nocrc, lambda p: p.rel, findings)
    if not findings:
        failures.append("selftest [wiremagic] missed an encoder with no CRC")

    # Wireversion: field-count drift vs envelope-magic pairing. The fake
    # header carries all three wire structs at baseline shape plus the
    # baseline number of version magics.
    def wire_header(count_fields, magics):
        count_body = "\n".join(
            f"  std::uint32_t f{i} = 0;" for i in range(count_fields))
        sighting_body = "\n".join(
            f"  double s{i} = 0.0;" for i in range(8))
        decode_body = "\n".join(
            f"  double d{i} = 0.0;  ///< trailing comment" for i in range(6))
        magic_lines = "\n".join(
            f"constexpr std::uint16_t kMagicT{i} = 0x{0xCB00 + i:04X};"
            for i in range(magics))
        return (f"struct CountReport {{\n{count_body}\n}};\n"
                f"struct SightingReport {{\n{sighting_body}\n}};\n"
                f"struct DecodeReport {{\n{decode_body}\n}};\n"
                f"{magic_lines}\n")

    base_structs = WIREVERSION_BASELINE["structs"]["CountReport"]
    base_magics = WIREVERSION_BASELINE["magics"]
    for fields, magics, expect, what in [
            (base_structs, base_magics, None, "clean baseline"),
            (base_structs + 1, base_magics, "needs a new kMagicVn",
             "grown struct with no version bump"),
            (base_structs + 1, base_magics + 1, "refresh WIREVERSION_BASELINE",
             "grown struct with a bump but a stale baseline"),
            (base_structs, base_magics + 1, "new frame type",
             "new magic with unchanged structs")]:
        findings = []
        fake = [FakePath("src/net/wire.hpp", wire_header(fields, magics))]
        check_wireversion(fake, lambda p: p.rel, findings)
        if expect is None:
            if findings:
                failures.append(f"selftest [wireversion] wrongly flagged "
                                f"{what}: {findings[0].message}")
        elif not any(expect in f.message for f in findings):
            failures.append(f"selftest [wireversion] missed {what}")

    findings = []
    check_wireversion([FakePath("src/net/empty.hpp", "// nothing")],
                      lambda p: p.rel, findings)
    absent = [f for f in findings if "not found" in f.message]
    if len(absent) != len(WIREVERSION_BASELINE["structs"]):
        failures.append("selftest [wireversion] missed absent wire structs")

    findings = []
    twice = [FakePath("src/a.cpp", 'reg.counter("dup.name");'),
             FakePath("src/b.cpp", 'reg.counter("dup.name");')]
    check_metricnames(twice, lambda p: p.rel, findings)
    if not any("2 sites" in f.message for f in findings):
        failures.append("selftest [metricnames] missed double registration")

    # Profstage: registry + scope-site pairing, like wireversion a
    # multi-file rule with its own baseline acknowledgement.
    def stage_registry(names):
        return "\n".join(
            f'inline constexpr char k{i}[] = "{name}";'
            for i, name in enumerate(sorted(names)))

    clean_registry = FakePath("src/obs/prof_stages.hpp",
                              stage_registry(PROFSTAGE_BASELINE))
    good_site = FakePath(
        "src/dsp/fft.cpp", "CARAOKE_PROF_SCOPE(obs::prof::stage::kFft);")
    profstage_cases = [
        ([clean_registry, good_site], None, "clean registry + constant site"),
        ([clean_registry,
          FakePath("src/dsp/fft.cpp", 'CARAOKE_PROF_SCOPE("dsp.fft");')],
         "raw string literal", "raw literal at a scope site"),
        ([clean_registry,
          FakePath("src/dsp/fft.cpp",
                   'CARAOKE_PROF_SCOPE("x.y");  '
                   "// caraoke-lint: allow(profstage): migration shim")],
         None, "allow marker suppresses a raw literal"),
        ([FakePath("src/obs/prof_stages.hpp",
                   stage_registry(PROFSTAGE_BASELINE)
                   + '\ninline constexpr char kNew[] = "dsp.simd_fft";')],
         "not in PROFSTAGE_BASELINE", "new stage without a baseline refresh"),
        ([FakePath("src/obs/prof_stages.hpp",
                   stage_registry(PROFSTAGE_BASELINE - {"dsp.fft"}))],
         "disappeared from the registry", "removed stage, stale baseline"),
        ([FakePath("src/obs/prof_stages.hpp",
                   stage_registry(PROFSTAGE_BASELINE)
                   + '\ninline constexpr char kDup[] = "dsp.fft";')],
         "already declared", "duplicate stage name"),
        ([FakePath("src/obs/prof_stages.hpp",
                   stage_registry(PROFSTAGE_BASELINE - {"dsp.fft"})
                   + '\ninline constexpr char kBad[] = "DSP.Fft";')],
         "dotted lowercase grammar", "uppercase stage name"),
        ([good_site], "registry not found", "missing registry file"),
    ]
    for fakes, expect, what in profstage_cases:
        findings = []
        check_profstage(fakes, lambda p: p.rel, findings)
        if expect is None:
            if findings:
                failures.append(f"selftest [profstage] wrongly flagged "
                                f"{what}: {findings[0].message}")
        elif not any(expect in f.message for f in findings):
            failures.append(f"selftest [profstage] missed {what}")

    # Build-tree path classifier (the rule itself reads the git index).
    for path, should_flag in [
            ("build-review/CMakeCache.txt", True),
            ("build/bench/bench_fig11", True),
            ("docs/build/index.html", True),
            ("tools/out/CMakeFiles/3.25.1/CMakeSystem.cmake", True),
            ("src/core/counter.o", True),
            ("BENCH_PR6.tmp.json", True),
            ("tools/scratch.tmp.json", True),
            ("bench/fig11_counting_accuracy.cpp", False),
            ("scripts/ci_perf.sh", False),
            ("BENCH_PR4.json", False),
            ("BENCH_PR7.json", False)]:
        if is_build_tree_path(path) != should_flag:
            verb = "should have flagged" if should_flag else "wrongly flagged"
            failures.append(f"selftest [buildtree] {verb}: {path!r}")

    for f in failures:
        print(f, file=sys.stderr)
    return not failures


# ----------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path("."),
                        help="repository root (directory containing src/)")
    parser.add_argument("--rule", choices=sorted(RULES), action="append",
                        help="run only these rules (default: all)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in rule selftest first")
    args = parser.parse_args()

    if args.selftest and not selftest():
        print("caraoke-lint: selftest FAILED", file=sys.stderr)
        return 2

    src = (args.root / "src").resolve()
    if not src.is_dir():
        print(f"caraoke-lint: no src/ under {args.root}", file=sys.stderr)
        return 2
    global CHECK_ROOT
    CHECK_ROOT = args.root.resolve()
    files = sorted(p for p in src.rglob("*")
                   if p.suffix in SOURCE_SUFFIXES and p.is_file())

    def rel(path):
        return path.resolve().relative_to(src.parent).as_posix()

    findings = []
    for name in (args.rule or sorted(RULES)):
        RULES[name](files, rel, findings)

    for finding in findings:
        print(finding)
    summary = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"caraoke-lint: {len(files)} files, {summary}"
          + (" (selftest ok)" if args.selftest else ""))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
