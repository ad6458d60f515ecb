"""The paper's contribution: the Two Level Perceptron (TLP) predictor.

* :class:`~repro.core.flp.FirstLevelPerceptron` -- off-chip prediction with
  the selective delay mechanism (Section IV-A).
* :class:`~repro.core.slp.SecondLevelPerceptron` -- off-chip prediction used
  as an L1D prefetch filter, with the leveling feature (Section IV-B).
* :class:`~repro.core.tlp.TwoLevelPerceptron` -- the combination of both
  (Section IV-C), plus helpers to attach it to a memory hierarchy.
* :mod:`repro.core.variants` -- the ablation designs of Figure 15
  (FLP-only, SLP-only, TSP, Delayed TSP, Selective TSP).
* :mod:`repro.core.storage` -- the Table II storage accounting.
"""
