//! What one database contributes to translating and checking a query over
//! it, derived once per database: the prompt profile API methods price
//! their prompts from, the schema catalog StaticRepair, the static check
//! and the canonicalizer resolve names against, and the column vocabulary
//! schema-linking corruptions draw from. The evaluator builds one per
//! database on first use; every translation and static check reads it.

use crate::prompt::DbPrompt;
use datagen::GeneratedDb;
use sqlcheck::Catalog;
use sqlkit::mutate::Vocab;

/// One database's profile. It owns what it holds, so a lazily filled cache
/// of profiles borrows nothing from the corpus.
pub struct DbProfile {
    /// What the database contributes to any prompt over it.
    pub(crate) prompt: DbPrompt,
    /// Its tables and typed columns.
    pub catalog: Catalog,
    /// Its distinct column names, first occurrence first.
    pub vocab: Vocab,
}

impl DbProfile {
    /// Profile `db`.
    pub fn new(db: &GeneratedDb) -> Self {
        let catalog = Catalog::from_database(&db.database);
        let mut columns: Vec<String> = Vec::new();
        for (column, _) in catalog.tables().iter().flat_map(|t| &t.columns) {
            if !columns.contains(column) {
                columns.push(column.clone());
            }
        }
        Self { prompt: DbPrompt::new(db), catalog, vocab: Vocab::new(columns) }
    }

    /// Whether this is the profile of `db`.
    pub fn describes(&self, db: &GeneratedDb) -> bool {
        self.prompt.describes(db)
    }
}
