"""Experiment harnesses reproducing every figure/table of the paper.

Each ``figNN_*`` module declares its experiment as a spec (see
:mod:`repro.experiments.spec`):

* ``sweep(config, **params)`` -- the declarative axes, compiled to a flat
  campaign-point batch;
* ``reduce(config, results, **params)`` -- a pure fold of the executed
  batch into the figure's result object;
* ``format_table(result)`` -- rendering;
* ``SPEC.claims`` -- the paper's claims about the result, as named
  predicates whose verdicts ``repro figure`` prints.

Specs register under their figure name, and the registry is the one way to
run a figure: ``run_experiment(name, cache=..., **params)``,
``repro.api.run_figure`` or ``repro figure <name>|all``.  Each executes its
figures through one parallel
:meth:`~repro.sim.engine.CampaignEngine.run` fan-out.  Every point is named
by its cache key, and :class:`repro.experiments.common.CampaignCache` keeps
one memo of results by that key, so the figures share their underlying
simulations -- regenerating all figures simulates each point once.
User-defined sweeps take the same path (``repro.api.run_sweep``): every
result comes from :meth:`~repro.experiments.common.CampaignCache.run_points`
and is read back through a :class:`~repro.experiments.spec.SweepResults`
view.
"""
