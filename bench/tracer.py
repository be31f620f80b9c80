"""Per-layer tracing of vdwsurf from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each ``vdwsurf.*`` module attribute that *is* the original object,
so ``from .quadrature import adaptive_gauss`` style bindings in other
modules are caught as well.  It also wraps ``Material.eps`` and
``Material.eps_imag``, the integrand handed to ``adaptive_gauss``, and counts
the integrator's panel evaluations.  ``uninstall`` restores every binding.

Spans are kept in memory and turned into the per-layer metrics by
``layer_metrics`` once the traced operations are done.  A span's self time
is its duration minus the durations of its child spans; single-threaded
spans nest, so those never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("config", "cli", "spectra", "interaction", "materials", "quadrature", "greens")


class Span:
    """One call.  ``n`` and ``k`` are per-name counts, ``lo`` a lower limit.

    quadrature.adaptive_gauss: n = panels returned (or carried by the
    QuadratureError), k = panels evaluated, lo = lower integration limit.
    quadrature.integrand and materials.Material.eps_imag: n = points.
    spectra.scan_spectrum: n = rows, k = flagged rows.
    """

    __slots__ = ("name", "parent", "t0", "t1", "n", "k", "lo", "failed")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.n = self.k = 0
        self.lo = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs, before=None, after=None):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if before is not None:
            args = before(span, args)
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.failed = True
            if after is not None:
                after(span, args, None, exc)
            raise
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(span, args, result, None)
        return result

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, before, after)

        return traced

    # -- hooks for spans that carry counts ---------------------------------

    def _gauss_before(self, span, args):
        f = args[0]
        span.lo = float(args[1])

        def integrand(x):
            return self._call("quadrature.integrand", f, (x,), {}, before=_count_points)

        return (integrand,) + tuple(args[1:])

    @staticmethod
    def _gauss_after(span, args, result, exc):
        if exc is not None:
            span.n = getattr(exc, "panels", None) or 0
        else:
            span.n = int(result[2])

    @staticmethod
    def _scan_after(span, args, result, exc):
        if result is not None:
            span.n = len(result)
            span.k = sum(row.error is not None for row in result)

    def _count_panel(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.spans[self._stack[-1]].k += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        hooks = {
            "quadrature.adaptive_gauss": (self._gauss_before, self._gauss_after),
            "spectra.scan_spectrum": (None, self._scan_after),
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"vdwsurf.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                span_name = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._wrap(span_name, obj, *hooks.get(span_name, (None, None))))
        for module_name, module in list(sys.modules.items()):
            if module_name != "vdwsurf" and not module_name.startswith("vdwsurf."):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attribute, entry[1])

        materials = sys.modules["vdwsurf.materials"]
        material = materials.Material
        self._patch(material, "eps", self._wrap("materials.Material.eps", material.eps))
        self._patch(
            material, "eps_imag",
            self._wrap("materials.Material.eps_imag", material.eps_imag, before=_count_xi),
        )
        quadrature = sys.modules["vdwsurf.quadrature"]
        if not hasattr(quadrature, "_panel"):
            raise RuntimeError("vdwsurf.quadrature._panel is gone: update the panel counter in bench/tracer.py")
        self._patch(quadrature, "_panel", self._count_panel(quadrature._panel))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def _child_durations(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return child

    def layer_metrics(self, tail_cap) -> dict:
        """Per-layer counts and seconds over every recorded span.

        ``tail_cap`` is the Sommerfeld tail block limit (None if unknown);
        a sommerfeld_green call whose tail reached it counts as capped.
        """
        spans = self.spans
        child = self._child_durations()

        def under(i, name):
            i = spans[i].parent
            while i >= 0:
                if spans[i].name == name:
                    return True
                i = spans[i].parent
            return False

        def named(name):
            return [i for i, s in enumerate(spans) if s.name == name]

        def total(idx):
            return sum(spans[i].duration for i in idx)

        def self_time(idx):
            return sum(spans[i].duration - child[i] for i in idx)

        gauss = named("quadrature.adaptive_gauss")
        integrand = named("quadrature.integrand")
        sommerfeld = named("greens.sommerfeld_green")
        blocks = {i: 0 for i in sommerfeld}
        for i in gauss:
            if spans[i].parent in blocks and spans[i].lo > 0.0:
                blocks[spans[i].parent] += 1
        scan = named("spectra.scan_spectrum")
        resonant = named("interaction.resonant_potential")
        enhancement = named("interaction.enhancement_factor")
        offres = named("interaction.offresonant_potential")
        eps = named("materials.Material.eps")
        eps_imag = named("materials.Material.eps_imag")
        nonretarded = named("greens.nonretarded_green")
        panels = sum(spans[i].n for i in gauss)
        evaluated = sum(spans[i].k for i in gauss)
        return {
            "config.load_s": total(named("config.load_config")),
            "cli.self_s": self_time(named("cli.main")),
            "spectra.scan.self_s": self_time(scan),
            "spectra.scan.rows": sum(spans[i].n for i in scan),
            "spectra.scan.flagged_rows": sum(spans[i].k for i in scan),
            "spectra.enhancement.self_s": self_time(named("spectra.scan_enhancement")),
            "spectra.peaks.self_s": self_time(named("spectra.find_peaks")),
            "spectra.peaks.evals": sum(under(i, "spectra.find_peaks") for i in resonant),
            "interaction.resonant.calls": len(resonant),
            "interaction.resonant.self_s": self_time(resonant),
            "interaction.enhancement.calls": len(enhancement),
            "interaction.enhancement.self_s": self_time(enhancement),
            "interaction.offres.calls": len(offres),
            "interaction.offres.self_s": self_time(offres),
            "interaction.offres.integrand_s": total(
                [i for i in integrand if under(i, "interaction.offresonant_potential")]
            ),
            "materials.eps.calls": len(eps),
            "materials.eps.s": total(eps),
            "materials.eps_imag.calls": len(eps_imag),
            "materials.eps_imag.points": sum(spans[i].n for i in eps_imag),
            "materials.eps_imag.s": total(eps_imag),
            "quadrature.calls": len(gauss),
            "quadrature.panels": panels,
            "quadrature.evals": sum(spans[i].n for i in integrand),
            "quadrature.integrand_calls": len(integrand),
            "quadrature.panel_yield": panels / evaluated if evaluated else 0.0,
            "quadrature.self_s": self_time(gauss),
            "quadrature.failed": sum(spans[i].failed for i in gauss),
            "greens.sommerfeld.calls": len(sommerfeld),
            "greens.sommerfeld.self_s": self_time(sommerfeld),
            "greens.integrand_s": total([i for i in integrand if under(i, "greens.sommerfeld_green")]),
            "greens.tail_blocks": sum(blocks.values()),
            "greens.tail_capped": sum(tail_cap is not None and b >= tail_cap for b in blocks.values()),
            "greens.nonretarded.calls": len(nonretarded),
            "greens.nonretarded.s": total(nonretarded),
        }

    def summary(self) -> list:
        """(name, calls, total seconds, self seconds) per span name."""
        child = self._child_durations()
        rows = {}
        for i, s in enumerate(self.spans):
            calls, tot, own = rows.get(s.name, (0, 0.0, 0.0))
            rows[s.name] = (calls + 1, tot + s.duration, own + s.duration - child[i])
        return sorted(((name,) + vals for name, vals in rows.items()), key=lambda r: -r[3])


def _count_points(span, args):
    span.n = int(np.size(args[0]))
    return args


def _count_xi(span, args):
    span.n = int(np.size(args[1]))  # args[0] is the Material
    return args
