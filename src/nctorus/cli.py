"""Command line front end: JSON config in, CSV plus JSON report out.

Outputs are data only and bitwise deterministic for a fixed config (no
timestamps, fixed float formatting).  Every gate is a verify check over
the library functions the verify suites call, so a NaN or infinite
deviation fails it.  Exit codes: 0 on success, 1 for usage or
configuration problems or a failed allocation, 2 when a check fails
(the report JSON then lists the failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain, islice, product, repeat
from pathlib import Path

import numpy as np

from . import dirac, dynamics, fourier, gns, grids, summation, verify, weyl
from .dynamics import DiffeoSpec, benchmark
from .errors import NcTorusError, _json_keys, _json_number, _json_numbers
from .gns import TruncationBox
from .tolerances import resolve

# Rows per write of a CSV table.
_CSV_CHUNK = 4096


def _cell(kind: type) -> str:
    """The %-format of one CSV cell by its type: bools (numpy's too) as
    1/0, integers as themselves, floats (np.float64 too) to 17
    significant digits, anything else by ``str``."""
    if issubclass(kind, (bool, np.bool_)):
        return "%d"
    if issubclass(kind, float):
        return "%.17g"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%s"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Header and rows, comma separated with ``\\n`` line ends.

    Each row is formatted by one %-template per row type signature, and
    the text is written ``_CSV_CHUNK`` rows at a time, which bounds the
    strings held at once.  Only a text cell can hold what the csv module
    quotes (a comma, a quote, a line break) or be a lone empty field;
    when a chunk's text shows one, that chunk goes through
    ``csv.writer`` instead, cell by cell in the same formats, so the
    bytes are the csv module's either way.
    """
    rows = chain([header], rows)
    templates: dict[tuple, str] = {}
    with open(path, "w", newline="") as handle:
        while chunk := list(islice(rows, _CSV_CHUNK)):
            lines = []
            for row in chunk:
                kinds = tuple(map(type, row))
                template = templates.get(kinds)
                if template is None:
                    template = templates[kinds] = ",".join(map(_cell, kinds))
                lines.append(template % tuple(row))
            text = "\n".join(lines) + "\n"
            if ('"' in text or "\r" in text or "" in lines
                    or text.count("\n") != len(lines)
                    or text.count(",") != sum(map(len, chunk)) - len(chunk)):
                csv.writer(handle, lineterminator="\n").writerows(
                    [_cell(type(v)) % (v,) for v in row] for row in chunk)
            else:
                handle.write(text)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _box_index(box: TruncationBox) -> tuple[list[int], list[int]]:
    """Block and mode of each entry of a (blocks, modes) table, row major."""
    return (np.repeat(box.blocks(), box.n_modes).tolist(),
            np.tile(box.modes(), box.n_blocks).tolist())


def _coeff_rows(table: fourier.FourierCoeffs):
    values = table.table.ravel()
    # abs of a Python complex, not np.abs: the two differ in last bits
    return zip(repeat(table.kind), *_box_index(table.box),
               values.real.tolist(), values.imag.tolist(),
               map(abs, values.tolist()))


def _term_rows(operator: gns.GnsOperator):
    """``(shift, n, mode, re, im)`` per in-box mode of every multiplier."""
    box = operator.box
    blocks, modes = _box_index(box)
    for s in sorted(operator.terms):
        hats = grids.project_to_modes(operator.terms[s],
                                      box.mode_bound).ravel()
        yield from zip(repeat(s), blocks, modes, hats.real.tolist(),
                       hats.imag.tolist())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


# Each config key and the JSON type of its value (numbers are read
# through int or float).
_CONFIG_KEYS = {"alpha": object, "seed": object, "classical_mode": bool,
                "quick": bool, **dict.fromkeys(
                    ("diffeo", "truncation", "tolerances", "element",
                     "second_element", "fourier", "fejer", "abel", "dirac",
                     "growth"), dict)}

# The keys each section may hold (tolerances, diffeo and the elements
# check their own when read).
_SECTION_KEYS = {"truncation": {"K", "M", "G"}, "fourier": {"kinds"},
                 "fejer": {"kind", "orders"}, "abel": {"kind", "radii"},
                 "dirac": {"block_radius", "etas", "master_radius"},
                 "growth": {"n_max"}}


def _setup(config: dict, args) -> dict:
    for key, value in config.items():
        kind = _CONFIG_KEYS.get(key, object)
        if not isinstance(value, kind):
            raise ValueError(f"config key {key!r} must be a JSON "
                             f"{'object' if kind is dict else 'boolean'}")
    _json_keys(config, _CONFIG_KEYS, "config")
    for name, known in _SECTION_KEYS.items():
        _json_keys(config.get(name, {}), known, name)
    elements = {key: weyl.WeylElement.from_dict(config[key])
                for key in ("element", "second_element") if key in config}
    box_cfg = config.get("truncation", {})
    if "diffeo" in config:
        d = DiffeoSpec.from_dict(config["diffeo"])
    elif "alpha" in config:
        alpha = _json_number(config["alpha"], "alpha")
        d = dynamics.rotation(alpha,
                              classical=config.get("classical_mode", False))
    else:
        d = benchmark()
    box = TruncationBox(*(_json_number(box_cfg.get(key, default),
                                       f"truncation {key}", int)
                          for key, default in (("K", 16), ("M", 16),
                                               ("G", 0))))
    seed = _json_number(config.get("seed", 7), "seed", int)
    tols = resolve(config.get("tolerances"), scale=args.tol_scale)
    return {"d": d, "box": box, "seed": seed, "tols": tols, "config": config,
            "elements": elements}


def _element(env: dict, key: str, offset: int = 0) -> weyl.WeylElement:
    alpha = env["d"].alpha
    if key in env["elements"]:
        f = env["elements"][key]
        if f.alpha != alpha:
            raise ValueError(f"{key} alpha does not match the dynamics")
        return f
    rng = np.random.default_rng(env["seed"] + offset)
    return weyl.random_element(rng, alpha, 2, decay=1.0)


def _finish(env: dict, out: Path, name: str, report: dict,
            checks: list[verify.CheckResult]) -> int:
    failures = sorted({r.name for r in checks if not r.passed})
    report["config_echo"] = env["config"]
    report["tolerances"] = env["tols"]
    report["failures"] = failures
    _write_json(out / f"{name}_report.json", report)
    if failures:
        print(json.dumps({"command": name, "failures": failures},
                         sort_keys=True))
        return 2
    return 0


def _cmd_star(env: dict, out: Path) -> int:
    d = env["d"]
    f = _element(env, "element")
    g = _element(env, "second_element", offset=1)
    product = weyl.star_product(f, g)
    _write_json(out / "star_product.json", product.to_dict())
    span = range(-2, 3)
    pairs = [((m, n), (mm, nn)) for m in span for n in span
             for mm in span for nn in span]
    relation = verify.check("weyl_relation",
                            weyl.weyl_relation_check(d.alpha, pairs),
                            env["tols"]["weyl_relation"])
    tr = weyl.trace(product)
    report = {
        "alpha": d.alpha,
        "entries": len(product),
        "trace_re": tr.real,
        "trace_im": tr.imag,
        "relation_deviation": relation.observed,
        "tolerance": relation.tolerance,
        "outputs": ["star_product.json"],
    }
    return _finish(env, out, "star", report, [relation])


def _cmd_represent(env: dict, out: Path) -> int:
    d, box = env["d"], env["box"]
    f = _element(env, "element")
    image = gns.vacuum_image(f, d, box)
    table = fourier.hat_vector(image)
    _write_csv(out / "vacuum_image.csv",
               ["kind", "k", "l", "re", "im", "abs"], _coeff_rows(table))
    operator = gns.represent(f, d, box)
    _write_csv(out / "represent_terms.csv",
               ["shift", "n", "mode", "re", "im"], _term_rows(operator))
    norm = image.norm()
    sup = table.sup()
    endpoint = verify.check("hausdorff_young_endpoint",
                            np.maximum(sup - norm, 0.0),
                            env["tols"]["hausdorff_young_endpoint"])
    # sup |f^| <= ||pi(f) xi|| <= ||pi(f)||; the second inequality's
    # slack is a roundoff too, so it shares the endpoint's tolerance
    operator_norm = operator.norm_estimate()
    bound = verify.check("operator_norm_bound",
                         np.maximum(norm - operator_norm, 0.0),
                         env["tols"]["hausdorff_young_endpoint"])
    report = {
        "operator_norm": operator_norm,
        "vacuum_image_norm": norm,
        "sup_coefficient": sup,
        "endpoint_slack": endpoint.observed,
        "tolerance": endpoint.tolerance,
        "outputs": ["vacuum_image.csv", "represent_terms.csv"],
    }
    return _finish(env, out, "represent", report, [endpoint, bound])


def _cmd_fourier(env: dict, out: Path) -> int:
    cfg, d, box = env["config"], env["d"], env["box"]
    f = _element(env, "element")
    kinds = cfg.get("fourier", {}).get("kinds", ["hat", "paren"])
    if not (isinstance(kinds, list)
            and all(kind in ("hat", "paren") for kind in kinds)):
        raise ValueError(f"fourier kinds must be a list of 'hat' and "
                         f"'paren', got {kinds!r}")
    outputs = []
    profile_rows = []
    for kind in kinds:
        table = summation.table_of(f, d, box, kind)
        name = f"fourier_{kind}.csv"
        _write_csv(out / name, ["kind", "k", "l", "re", "im", "abs"],
                   _coeff_rows(table))
        outputs.append(name)
        profile = fourier.riemann_lebesgue_profile(table)
        profile_rows += [[kind, ring, float(v)]
                         for ring, v in enumerate(profile)]
    _write_csv(out / "riemann_lebesgue.csv", ["kind", "ring", "sup"],
               profile_rows)
    outputs.append("riemann_lebesgue.csv")
    routes = verify.check("paren_routes", fourier.route_agreement(f, d, box),
                          env["tols"]["paren_routes"])
    report = {
        "route_deviation": routes.observed,
        "tolerance": routes.tolerance,
        "outputs": outputs,
    }
    return _finish(env, out, "fourier", report, [routes])


def _smoothing(env: dict, out: Path, name: str) -> int:
    cfg, d, box = env["config"], env["d"], env["box"]
    f = _element(env, "element")
    section = cfg.get(name, {})
    kind = section.get("kind", "hat")
    if name == "fejer":
        params = _json_numbers(section.get("orders", [4, 8, 16]),
                               "fejer orders", int)
        kernels = [summation.SummationKernel("fejer", order=n)
                   for n in params]
    else:
        params = _json_numbers(section.get("radii", [0.9, 0.99, 0.999]),
                               "abel radii")
        kernels = [summation.SummationKernel("abel", radius=r)
                   for r in params]
    if len(kernels) < 2:
        raise ValueError(f"{name} needs at least two kernels to compare")
    rows = summation.convergence_profile(f, d, box, kind, kernels)
    csv_name = f"{name}_convergence.csv"
    _write_csv(out / csv_name, ["parameter", "l2_error", "sup_coeff_error"],
               [[row["parameter"], row["l2_error"], row["sup_coeff_error"]]
                for row in rows])
    report = {"kind": kind, "outputs": [csv_name]}
    if name == "fejer":
        tols = env["tols"]
        checks = verify.ratio_band_checks(
            ["fejer_ratio_band"] * (len(rows) - 1), rows,
            tols["fejer_ratio_low"], tols["fejer_ratio_high"])
        report["ratios"] = [r.observed for r in checks]
        report["band"] = [tols["fejer_ratio_low"], tols["fejer_ratio_high"]]
        transference = verify.transference_check(
            d, box, tols, np.random.default_rng(env["seed"]))
        report["transference_deviation"] = transference.observed
        checks.append(transference)
    else:
        monotone = verify.decrease_check("abel_monotone", rows)
        report["monotone"] = monotone.passed
        checks = [monotone]
    return _finish(env, out, name, report, checks)


def _cmd_dirac(env: dict, out: Path) -> int:
    cfg, d, box, tols = env["config"], env["d"], env["box"], env["tols"]
    section = cfg.get("dirac", {})
    radius = _json_number(section.get("block_radius", 8),
                          "dirac block_radius", int)
    if radius < 1:
        raise ValueError("dirac block_radius < 1 leaves no block n != 0")
    if box.mode_bound < 1:
        raise ValueError("dirac needs M >= 1: no deflated n = 0 corner")
    etas = list(_json_numbers(section.get("etas", dirac.ETAS), "dirac etas"))
    master_radius = min(_json_number(section.get("master_radius", 4),
                                     "dirac master_radius", int),
                        box.block_bound, box.mode_bound)
    growth = dynamics.growth_sequence(d, max(radius, box.block_bound) + 1)
    # an empty element table raises here, before any artifact is written
    closed, dev = dirac.master_elements(d, box, master_radius, etas, growth)
    master = verify.check("dirac_master", dirac.element_deviation(dev),
                          tols["dirac_master"])
    rows, (telescoping, margin, commutator) = verify.dirac_bound_checks(
        d, box, tols, growth, radius, etas)
    _write_csv(out / "dirac_blocks.csv",
               ["n", "eta", "sigma_min", "bound", "margin"],
               [[row["n"], row["eta"], row["sigma_min"], row["bound"],
                 row["margin"]] for row in rows])
    # rows in the tables' [eta, k, s, l] order, written as (eta, k, l, s)
    span = range(-master_radius, master_radius + 1)
    cells = zip(product(etas, span, span, span), closed.real.ravel().tolist(),
                closed.imag.ravel().tolist(), dev.ravel().tolist())
    _write_csv(out / "dirac_elements.csv",
               ["eta", "k", "l", "s", "re", "im", "deviation"],
               ([eta, k, l, s, *values] for (eta, k, s, l), *values in cells))
    report = {
        "master_deviation": master.observed,
        "master_tolerance": master.tolerance,
        "telescoping": telescoping.observed,
        "commutator_excess": commutator.observed,
        "min_margin": margin.observed,
        "outputs": ["dirac_blocks.csv", "dirac_elements.csv"],
    }
    return _finish(env, out, "dirac", report,
                   [master, telescoping, commutator, margin])


def _cmd_growth(env: dict, out: Path) -> int:
    cfg, d = env["config"], env["d"]
    n_max = _json_number(cfg.get("growth", {}).get("n_max", 16),
                         "growth n_max", int)
    growth = dynamics.growth_sequence(d, n_max)
    a = dirac.a_sequence(growth, n_max)
    rows = []
    for n in range(n_max + 1):
        lam = summation.SummationKernel("dirichlet", order=n).l1_norm()
        rows.append([n, growth.gamma(n), float(a[n_max + n]), lam])
    _write_csv(out / "growth.csv", ["n", "gamma", "a", "dirichlet_l1"], rows)
    band = verify.check("dirichlet_growth",
                        summation.dirichlet_growth_deviation(10, 100),
                        env["tols"]["dirichlet_band"])
    report = {
        "band_deviation": band.observed,
        "band": band.tolerance,
        "outputs": ["growth.csv"],
    }
    return _finish(env, out, "growth", report, [band])


def _cmd_verify(env: dict, out: Path) -> int:
    cfg = env["config"]
    quick = cfg.get("quick", True)
    results = verify.run_all(env["d"], env["box"], env["tols"],
                             seed=env["seed"], quick=quick)
    _write_csv(out / "verify.csv", ["name", "tolerance", "observed", "passed"],
               [[r.name, r.tolerance, r.observed, r.passed] for r in results])
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        extra = f"  ({r.note})" if r.note else ""
        print(f"[{tag}] {r.name}: observed {r.observed:.3e} vs "
              f"tolerance {r.tolerance:.3e}{extra}")
    report = {
        "checks": len(results),
        "outputs": ["verify.csv"],
        "results": {r.name: {"observed": r.observed,
                             "tolerance": r.tolerance,
                             "passed": r.passed} for r in results},
    }
    return _finish(env, out, "verify", report, results)


_COMMANDS = {
    "star": _cmd_star,
    "represent": _cmd_represent,
    "fourier": _cmd_fourier,
    "fejer": lambda env, out: _smoothing(env, out, "fejer"),
    "abel": lambda env, out: _smoothing(env, out, "abel"),
    "dirac": _cmd_dirac,
    "growth": _cmd_growth,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _Parser(prog="nctorus",
                     description="Deformed torus harmonic analysis toolkit")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance by this factor")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        env = _setup(config, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](env, out)
    except (NcTorusError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"nctorus: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"nctorus: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
