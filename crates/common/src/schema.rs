//! Schemas: named, typed, nullable fields.
//!
//! Schemas are immutable and shared via [`SchemaRef`] (`Arc<Schema>`),
//! matching how plans and batches in Spark SQL share schema objects.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{Result, SsError};
use crate::types::DataType;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Field {
    /// A nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A non-nullable field.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// Same field but nullable.
    pub fn as_nullable(&self) -> Field {
        Field {
            nullable: true,
            ..self.clone()
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)?;
        if !self.nullable {
            f.write_str(" NOT NULL")?;
        }
        Ok(())
    }
}

/// Shared, immutable schema handle.
pub type SchemaRef = Arc<Schema>;

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema; duplicate field names are rejected.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(SsError::Schema(format!(
                    "duplicate field name `{}`",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// Build a schema, panicking on duplicates. For static schemas in
    /// tests and examples.
    pub fn of(fields: Vec<Field>) -> SchemaRef {
        Arc::new(Schema::new(fields).expect("valid static schema"))
    }

    /// The empty schema.
    pub fn empty() -> SchemaRef {
        Arc::new(Schema::default())
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| {
                SsError::Schema(format!(
                    "no column `{name}`; available: [{}]",
                    self.field_names().join(", ")
                ))
            })
    }

    /// Look up a field by name.
    pub fn field_by_name(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name == name)
    }

    pub fn field_names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Concatenate two schemas (for joins); duplicate names are allowed
    /// here and disambiguated positionally, as Spark does for join output
    /// before the user projects.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// A new schema with only the given indices, in order.
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(indices.len());
        for &i in indices {
            let f = self.fields.get(i).ok_or_else(|| {
                SsError::Schema(format!("projection index {i} out of range {}", self.len()))
            })?;
            fields.push(f.clone());
        }
        Ok(Schema { fields })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Field>> for Schema {
    fn from(fields: Vec<Field>) -> Self {
        Schema::new(fields).expect("valid schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::not_null("b", DataType::Utf8),
            Field::new("c", DataType::Timestamp),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("x", DataType::Utf8),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn lookup_by_name() {
        let s = abc();
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert_eq!(s.field_by_name("c").unwrap().data_type, DataType::Timestamp);
        let err = s.index_of("zzz").unwrap_err();
        assert!(err.to_string().contains("available"));
        assert!(s.contains("a") && !s.contains("zzz"));
    }

    #[test]
    fn project_reorders_and_bounds_checks() {
        let s = abc();
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.field_names(), vec!["c", "a"]);
        assert!(s.project(&[5]).is_err());
    }

    #[test]
    fn join_allows_duplicates() {
        let s = abc();
        let j = s.join(&abc());
        assert_eq!(j.len(), 6);
        // index_of finds the first occurrence.
        assert_eq!(j.index_of("a").unwrap(), 0);
    }

    #[test]
    fn display_formats() {
        let s = abc();
        let d = s.to_string();
        assert!(d.contains("b: STRING NOT NULL"));
        assert!(d.starts_with('(') && d.ends_with(')'));
    }

    #[test]
    fn field_helpers() {
        let f = Field::not_null("x", DataType::Int64);
        assert!(!f.nullable);
        assert!(f.as_nullable().nullable);
    }
}
