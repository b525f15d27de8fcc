"""Reference implementations the production kernels are tested against.

They are deliberately simple and slow: products are built in full as
:class:`~repro.ltl.buchi.GeneralizedBuchi` objects with dict/list loops, and
emptiness is decided by Tarjan's SCC decomposition of the stored graph.
Product states are annotated with the same tuples the on-the-fly search uses
as states, so a lasso found by the search can be replayed on an oracle
product with :func:`oracles.product.check_lasso`.
"""
