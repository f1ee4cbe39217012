//! Property-based tests for the SQL front-end: printer/parser fix-point,
//! normalizer idempotence, exact-match reflexivity, lexer totality, and
//! mutation well-formedness over *generated random ASTs*.

use proptest::prelude::*;
use sqlkit::ast::*;
use sqlkit::{exact_match, normalize::normalize, parse_query, to_sql};

// ---- strategies ----

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,7}".prop_filter("no keywords needed (printer quotes them anyway)", |s| {
        !s.is_empty()
    })
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Null),
        (-1_000_000i64..1_000_000).prop_map(Literal::Int),
        (-1.0e6..1.0e6f64).prop_map(Literal::Float),
        "[ -~]{0,12}".prop_map(Literal::Str),
        any::<bool>().prop_map(Literal::Bool),
    ]
}

fn column() -> impl Strategy<Value = Expr> {
    (proptest::option::of(ident()), ident())
        .prop_map(|(table, column)| Expr::Column { table, column })
}

fn agg_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::LtEq),
        Just(BinOp::Gt),
        Just(BinOp::GtEq),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Concat),
    ]
}

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![literal().prop_map(Expr::Literal), column()];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = expr(depth - 1);
    prop_oneof![
        leaf,
        (agg_func(), any::<bool>(), expr(depth - 1))
            .prop_map(|(f, d, a)| Expr::Agg { func: f, distinct: d, arg: Box::new(a) }),
        agg_func().prop_map(Expr::AggWildcard),
        (binop(), expr(depth - 1), expr(depth - 1)).prop_map(|(op, l, r)| Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r)
        }),
        expr(depth - 1).prop_map(|e| Expr::Unary { op: UnOp::Not, expr: Box::new(e) }),
        (expr(depth - 1), any::<bool>(), expr(depth - 1), expr(depth - 1)).prop_map(
            |(e, n, lo, hi)| Expr::Between {
                expr: Box::new(e),
                negated: n,
                low: Box::new(lo),
                high: Box::new(hi)
            }
        ),
        (expr(depth - 1), any::<bool>(), prop::collection::vec(inner.clone(), 1..4)).prop_map(
            |(e, n, list)| Expr::InList { expr: Box::new(e), negated: n, list }
        ),
        (expr(depth - 1), any::<bool>()).prop_map(|(e, n)| Expr::IsNull {
            expr: Box::new(e),
            negated: n
        }),
        (expr(depth - 1), any::<bool>(), "[ -~]{0,6}").prop_map(|(e, n, p)| Expr::Like {
            expr: Box::new(e),
            negated: n,
            pattern: Box::new(Expr::Literal(Literal::Str(p)))
        }),
        (
            prop::collection::vec((expr(depth - 1), expr(depth - 1)), 1..3),
            proptest::option::of(expr(depth - 1))
        )
            .prop_map(|(branches, else_expr)| Expr::Case {
                operand: None,
                branches,
                else_expr: else_expr.map(Box::new)
            }),
        (expr(depth - 1), prop_oneof![Just("INT"), Just("REAL"), Just("TEXT")]).prop_map(
            |(e, ty)| Expr::Cast { expr: Box::new(e), ty: ty.to_string() }
        ),
    ]
    .boxed()
}

fn select_item() -> impl Strategy<Value = SelectItem> {
    prop_oneof![
        Just(SelectItem::Wildcard),
        ident().prop_map(SelectItem::QualifiedWildcard),
        (expr(2), proptest::option::of(ident()))
            .prop_map(|(e, alias)| SelectItem::Expr { expr: e, alias }),
    ]
}

fn join_kind() -> impl Strategy<Value = JoinKind> {
    prop_oneof![
        Just(JoinKind::Inner),
        Just(JoinKind::Left),
        Just(JoinKind::Right),
        Just(JoinKind::Cross)
    ]
}

fn from_clause() -> impl Strategy<Value = FromClause> {
    (
        (ident(), proptest::option::of(ident())),
        prop::collection::vec(
            (join_kind(), ident(), proptest::option::of(ident()), proptest::option::of(expr(1))),
            0..3,
        ),
    )
        .prop_map(|((base, base_alias), joins)| FromClause {
            base: TableRef::Named { name: base, alias: base_alias },
            joins: joins
                .into_iter()
                .map(|(kind, name, alias, on)| Join {
                    kind,
                    table: TableRef::Named { name, alias },
                    on,
                })
                .collect(),
        })
}

fn select_core() -> impl Strategy<Value = SelectCore> {
    (
        any::<bool>(),
        prop::collection::vec(select_item(), 1..4),
        proptest::option::of(from_clause()),
        proptest::option::of(expr(2)),
        prop::collection::vec(expr(1), 0..3),
        proptest::option::of(expr(2)),
    )
        .prop_map(|(distinct, items, from, where_clause, group_by, having)| SelectCore {
            distinct,
            items,
            from,
            where_clause,
            // HAVING without GROUP BY does not print back into the grammar
            // position the parser accepts, so tie it to grouping
            having: if group_by.is_empty() { None } else { having },
            group_by,
        })
}

prop_compose! {
    fn query()(
        body in select_core(),
        set_ops in prop::collection::vec(
            (prop_oneof![
                Just(SetOp::Union), Just(SetOp::UnionAll),
                Just(SetOp::Intersect), Just(SetOp::Except)
            ], select_core()),
            0..2
        ),
        order_by in prop::collection::vec(
            (expr(1), any::<bool>()).prop_map(|(e, desc)| OrderKey { expr: e, desc }),
            0..3
        ),
        limit in proptest::option::of((0u64..1000, 0u64..100).prop_map(|(count, offset)| Limit { count, offset })),
    ) -> Query {
        Query { body, set_ops, order_by, limit }
    }
}

// ---- properties ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print ∘ parse ∘ print is the identity on printed SQL: the canonical
    /// form is a fix-point.
    #[test]
    fn printer_parser_fixpoint(q in query()) {
        let printed = to_sql(&q);
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("generated SQL must parse: `{printed}`: {e}"));
        prop_assert_eq!(to_sql(&reparsed), printed);
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_idempotent(q in query()) {
        let once = normalize(&q);
        let twice = normalize(&once);
        prop_assert_eq!(once, twice);
    }

    /// Exact match is reflexive, even across a print/parse trip.
    #[test]
    fn exact_match_reflexive(q in query()) {
        prop_assert!(exact_match(&q, &q));
        let reparsed = parse_query(&to_sql(&q)).expect("prints parse");
        prop_assert!(exact_match(&q, &reparsed));
    }

    /// Feature extraction and hardness classification are total.
    #[test]
    fn analysis_is_total(q in query()) {
        let f = sqlkit::SqlFeatures::of(&q);
        let _ = sqlkit::Hardness::classify(&q);
        let _ = sqlkit::hardness::BirdDifficulty::classify(&q);
        // counts are consistent with the boolean views
        prop_assert_eq!(f.has_subquery(), f.subquery_count > 0);
        prop_assert_eq!(f.has_join(), f.join_count > 0);
    }

    /// The lexer never panics, whatever bytes arrive.
    #[test]
    fn lexer_total(s in "\\PC{0,64}") {
        let _ = sqlkit::lexer::tokenize(&s);
    }

    /// The parser never panics on arbitrary input either.
    #[test]
    fn parser_total(s in "\\PC{0,64}") {
        let _ = parse_query(&s);
    }

    /// The shared and the mutable walk visit the same nodes in the same
    /// order: mutation picks its site by index over the mutable one.
    #[test]
    fn shared_and_mutable_walks_agree(q in query()) {
        let mut shared = Vec::new();
        q.for_each_child(|c| {
            if let Child::Expr(e) = c {
                e.walk(false, &mut |x| shared.push(format!("{x:?}")));
            }
        });
        let mut mutable = Vec::new();
        let mut q = q;
        q.for_each_child_mut(|c| {
            if let ChildMut::Expr(e) = c {
                e.walk_mut(&mut |x| mutable.push(format!("{x:?}")));
            }
        });
        prop_assert_eq!(shared, mutable);
    }

    /// Every mutation yields SQL that still prints and reparses.
    #[test]
    fn mutations_stay_well_formed(q in query(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vocab = sqlkit::mutate::Vocab::new(["alpha".into(), "beta".into(), "gamma".into()]);
        let mut mutated = q;
        sqlkit::mutate::corrupt(&mut mutated, &sqlkit::mutate::MutationKind::ALL, &vocab, &mut rng);
        let printed = to_sql(&mutated);
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("mutated SQL must parse: `{printed}`: {e}"));
        prop_assert_eq!(to_sql(&reparsed), printed);
    }
}
