"""Stochastic weighted bipartite matching in the query-commit model.

Library layout:

* ``instance``  -- problem instances, I/O, generators, realization sampling
* ``lpmatch``   -- the subset relaxation and its cutting-plane solver
* ``transform`` -- the shrink map, dummy padding, threshold functions
* ``permdist``  -- proportional permutation distributions and the filtered
                   sampler
* ``engine``    -- the query-commit state machine and rounding algorithms
* ``oracle``    -- exact offline optimum and exact event probabilities
* ``mcsim``     -- vectorized batch trial runner (Monte Carlo estimates)
* ``verify``    -- numeric certification of the analytic claims
* ``cli``       -- ``qcmatch`` command-line entry point
"""

__version__ = "0.1.0"
