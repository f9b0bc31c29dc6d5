"""Provenance of a benchmark run, and the rule for comparing runs.

Every result file carries a provenance block. Two runs are comparable
only when they were measured the same way: same machine shape, build,
compiler, SIMD selection, temp-dir filesystem and benchmark code.
The code under test may differ between the two sides of a comparison
(that is what is being compared) but not within one side.
"""
import hashlib
import os
import platform
import subprocess

# Must match across every run being compared.
SETUP_KEYS = ("build_type", "compiler", "nproc", "cpu_model", "isa",
              "simd_dispatch", "simd_active", "tmp_fs", "bench_sha256", "run_seconds")
# Must match within one side of a comparison.
CODE_KEYS = ("git_sha", "source_sha256")


def tree_sha256(root, subdirs):
    """Digest of every regular file under root/<subdir>, by path and bytes."""
    digest = hashlib.sha256()
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cmake_cache(build_dir):
    values = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as handle:
            for line in handle:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def _first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=10).stdout
        return out.splitlines()[0].strip() if out else None
    except (OSError, subprocess.SubprocessError):
        return None


def _cpuinfo():
    model, flags = None, set()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, flags


def filesystem_type(path):
    """Type of the filesystem holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fs_type = "", None
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def collect(root, build_dir, tmp_dir, run_seconds):
    cache = _cmake_cache(build_dir)
    model, flags = _cpuinfo()
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        git_sha = _first_line(["git", "-C", root, "rev-parse", "HEAD"])
    compiler = cache.get("CMAKE_CXX_COMPILER")
    return {
        "git_sha": git_sha,
        "source_sha256": tree_sha256(root, ("src", "tools")),
        "bench_sha256": tree_sha256(root, ("perfbench",)),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": _first_line([compiler, "--version"]) if compiler else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "isa": sorted(flags & {"sse4_2", "avx", "avx2", "fma", "avx512f"}),
        # The library picks its k-means kernel at run time; the
        # environment override, when set, forces one.
        "simd_dispatch": os.environ.get("ADA_SIMD_DISPATCH", "auto"),
        "simd_active": ("avx2" if {"avx2", "fma"} <= flags and
                        os.environ.get("ADA_SIMD_DISPATCH") != "scalar"
                        else "scalar"),
        "tmp_fs": filesystem_type(tmp_dir),
        "python": platform.python_version(),
        "run_seconds": run_seconds,
    }


def comparable(side_a, side_b):
    """None when the two lists of provenance blocks may be compared,
    else the reason they may not."""
    runs = list(side_a) + list(side_b)
    if not side_a or not side_b:
        return "each side needs at least one run"
    for key in SETUP_KEYS:
        values = {repr(p.get(key)) for p in runs}
        if len(values) > 1:
            return "provenance differs in %s: %s" % (key, ", ".join(sorted(values)))
    for name, side in (("A", side_a), ("B", side_b)):
        for key in CODE_KEYS:
            values = {repr(p.get(key)) for p in side}
            if len(values) > 1:
                return "side %s mixes code versions (%s: %s)" % (
                    name, key, ", ".join(sorted(values)))
    return None
