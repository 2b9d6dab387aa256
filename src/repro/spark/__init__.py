"""PySpark dataflow layer.

The paper's contribution is a search algorithm, not a planner rule, so
(per DESIGN.md's layering note) it is expressed here as
``DataFrame -> DataFrame`` transformations:

- ``aggregates``: aggregate representations ``F(r)`` as Catalyst
  ``groupBy`` aggregations (checked against the DuckDB oracle);
- ``cellify``: the reduced-rectangle -> candidate-cell explosion (the
  geo-partitioning of the scan);
- ``summaries``: the grid index's attribute summary tables — the core's
  channel planes per partition (``mapInPandas``), summed per cell with
  ``groupBy``, suffix sums on the driver;
- ``search``: the distributed GI-DS scan — candidate index cells are
  pruned and sorted with driver-side lower bounds, dealt round-robin to
  the tasks, and each ``applyInPandas`` task runs Algorithm 2 over its
  share with the DS-Search kernel.
"""
