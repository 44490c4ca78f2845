"""Certified sequence algebra on integer lattices.

The package works with two dual families of complex sequences indexed by
Z^d: slowly growing sequences carrying polynomial growth certificates,
and rapidly decreasing test sequences carrying decay data.  On top of
the certified arithmetic it provides

* window-checked corona-type lower bounds with an explicit Bezout
  solver and the converse witness extraction (`corona`),
* single-multiplier reduction of unimodular tuples and approximation of
  arbitrary elements by invertibles via clipping (`stable_rank`),
* a bridge to periodic functions through dual lattices and the discrete
  Fourier transform (`fourier`),
* exact polynomial Bezout identities illustrating why the reduction
  fails in a zero-free function world (`exp_type`),
* a deterministic JSON-driven command line front end (`cli`).

All window scans walk lattice points in one canonical order (1-norm
shells, then lexicographic), so every reported number and every "first
violation" is reproducible bit for bit on one numpy build at one CPU
dispatch level: numpy's ``exp`` and ``arctan2`` may round the last bit
differently with and without its AVX-512 kernels.

Every public name has one import path, in its module:
``from periodist.corona import check_corona_window``.  Importing the
package loads every module but ``cli``, the command line entry point.
"""

from . import corona, errors, exp_type, expr, fourier, lattice, sequences, stable_rank  # noqa: F401

__version__ = "0.1.0"
