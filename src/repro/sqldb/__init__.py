"""In-memory relational database engine.

This package is the execution substrate for the whole reproduction: a
typed catalog (:mod:`~repro.sqldb.schema`), row storage
(:mod:`~repro.sqldb.table`), a SQL AST with pretty printer
(:mod:`~repro.sqldb.ast`), a SQL parser (:mod:`~repro.sqldb.parser`), an
interpreting executor supporting joins, grouping, ordering and nested
sub-queries (:mod:`~repro.sqldb.executor`), a cost-aware planner with
hash joins, predicate pushdown, secondary-index scans and per-query
execution statistics (:mod:`~repro.sqldb.planner`), and an inverted
index over text data values (:mod:`~repro.sqldb.index`).

Quick example::

    from repro.sqldb import Database, TableSchema, Column, DataType, execute_sql

    db = Database("demo")
    db.create_table(TableSchema("emp", [
        Column("id", DataType.INTEGER, primary_key=True),
        Column("name", DataType.TEXT),
        Column("salary", DataType.FLOAT),
    ]))
    db.insert("emp", [1, "Ada", 120.0])
    result = execute_sql(db, "SELECT name FROM emp WHERE salary > 100")
"""

from .ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Join,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryExpr,
    TableRef,
    UnaryOp,
)
from .analyzer import AnalysisResult, Diagnostic, SemanticAnalyzer, analyze, analyze_sql
from .columnar import ColumnarEngine, ColumnStore
from .database import Database
from .errors import (
    ERROR_CLASS_BY_CODE,
    AggregateError,
    AmbiguousColumnError,
    CatalogError,
    ExecutionError,
    ParseError,
    SchemaError,
    SqlError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownFunctionError,
    UnknownTableError,
)
from .executor import Executor, execute_sql
from .index import IndexEntry, ValueIndex, split_identifier
from .parser import parse_create_table, parse_expression, parse_select
from .planner import ExecutionStats, JoinPlan, Planner, QueryPlan, ScanPlan
from .relation import Relation
from .schema import Column, ForeignKey, TableSchema
from .table import Table
from .types import DataType, parse_date

__all__ = [
    "Between", "BinaryOp", "ColumnRef", "Expr", "FuncCall", "InList", "IsNull",
    "Join", "Literal", "OrderItem", "SelectItem", "SelectStatement", "Star",
    "SubqueryExpr", "TableRef", "UnaryOp",
    "Database", "Executor", "execute_sql", "Relation", "Table",
    "Column", "ForeignKey", "TableSchema", "DataType", "parse_date",
    "IndexEntry", "ValueIndex", "split_identifier",
    "parse_select", "parse_expression", "parse_create_table",
    "ExecutionStats", "Planner", "QueryPlan", "ScanPlan", "JoinPlan",
    "SqlError", "ParseError", "CatalogError", "SchemaError", "TypeMismatchError",
    "ExecutionError", "AggregateError", "AmbiguousColumnError", "UnknownColumnError",
    "UnknownFunctionError", "UnknownTableError", "ERROR_CLASS_BY_CODE",
    "AnalysisResult", "Diagnostic", "SemanticAnalyzer", "analyze", "analyze_sql",
    "ColumnStore", "ColumnarEngine",
]
