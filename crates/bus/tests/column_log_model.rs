//! Model test of the bus's column log: a seeded interleaving of
//! appends (batches of 1 … 70 000 rows with NULLs, a type change and an
//! arity change mid-stream), retention cuts and `DropOldest` shedding,
//! checked after every step against a plain `Vec<Record>`.

use std::sync::Arc;

use ss_bus::{BusSource, MessageBus, OverflowPolicy, Record, Source, TopicConfig};
use ss_common::rng::XorShift64;
use ss_common::{
    ColumnBuilder, DataType, Field, OffsetRange, PartitionOffsets, RecordBatch, Result, Row,
    Schema, SchemaRef, SsError, Value,
};

const TOPIC: &str = "log";

fn schema() -> SchemaRef {
    Schema::of(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("at", DataType::Timestamp),
        Field::new("score", DataType::Float64),
    ])
}

/// What a batch's rows look like.
#[derive(Clone, Copy)]
enum Shape {
    /// The schema's own types, `name` and `score` NULL in `nulls` of
    /// 1024 rows.
    Typed { nulls: u64 },
    /// `at` and `score` arrive as BIGINT: both coerce at read time.
    Widened,
    /// NULL everywhere but `id`: the other columns stay typeless.
    Sparse,
    /// `id` is a string: reading it is a type error.
    Mistyped,
    /// A fifth value: reading it is a schema error.
    Wide,
}

fn make_row(shape: Shape, rng: &mut XorShift64, id: i64) -> Row {
    let h = rng.next_u64();
    let name = Value::str(format!("n{}", h % 13));
    match shape {
        Shape::Typed { nulls } => Row::new(vec![
            Value::Int64(id),
            if h % 1024 < nulls { Value::Null } else { name },
            Value::Timestamp(id * 1_000),
            if (h >> 20) % 1024 < nulls {
                Value::Null
            } else {
                Value::Float64(id as f64 / 4.0)
            },
        ]),
        Shape::Widened => Row::new(vec![
            Value::Int64(id),
            name,
            Value::Int64(id * 1_000),
            Value::Int64(id),
        ]),
        Shape::Sparse => Row::new(vec![Value::Int64(id), Value::Null, Value::Null, Value::Null]),
        Shape::Mistyped => Row::new(vec![
            name,
            Value::Null,
            Value::Timestamp(id),
            Value::Float64(0.5),
        ]),
        Shape::Wide => Row::new(vec![
            Value::Int64(id),
            name,
            Value::Timestamp(id),
            Value::Float64(1.0),
            Value::Boolean(true),
        ]),
    }
}

/// The reference: every retained record, in a `Vec`.
struct Model {
    base: u64,
    records: Vec<Record>,
    capacity: Option<usize>,
    shed: u64,
}

impl Model {
    fn next(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    fn append(&mut self, stamp: i64, rows: &[Row]) {
        for row in rows {
            self.records.push(Record {
                offset: self.next(),
                ingest_time_us: stamp,
                row: row.clone(),
            });
        }
        if let Some(cap) = self.capacity {
            let shed = self.records.len().saturating_sub(cap);
            self.drop_oldest(shed);
            self.shed += shed as u64;
        }
    }

    fn drop_oldest(&mut self, n: usize) {
        self.records.drain(..n);
        self.base += n as u64;
    }

    fn truncate_before(&mut self, offset: u64) {
        if offset > self.base {
            let n = ((offset - self.base) as usize).min(self.records.len());
            self.drop_oldest(n);
            self.base = offset;
        }
    }

    fn slice(&self, start: u64, end: u64) -> &[Record] {
        &self.records[(start - self.base) as usize..(end - self.base) as usize]
    }

    /// What reading `[start, end)` through a `BusSource` has to give:
    /// the record-at-a-time decode the column log replaced.
    fn batch(&self, start: u64, end: u64, projection: Option<&[usize]>) -> Result<RecordBatch> {
        let schema = schema();
        let indices: Vec<usize> = projection.map_or((0..schema.len()).collect(), <[usize]>::to_vec);
        let out_schema = Arc::new(schema.project(&indices)?);
        let mut builders: Vec<ColumnBuilder> = out_schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        for rec in self.slice(start, end) {
            if rec.row.len() != schema.len() {
                return Err(SsError::Schema(format!(
                    "record at {TOPIC}/0:{} has {} values, schema has {}",
                    rec.offset,
                    rec.row.len(),
                    schema.len()
                )));
            }
            for (b, &i) in builders.iter_mut().zip(&indices) {
                b.push(rec.row.get(i))?;
            }
        }
        RecordBatch::try_new(out_schema, builders.into_iter().map(|b| b.finish()).collect())
    }
}

fn range(start: u64, end: u64) -> OffsetRange {
    OffsetRange {
        start: PartitionOffsets::from([(0, start)]),
        end: PartitionOffsets::from([(0, end)]),
    }
}

/// How many range reads ended in a batch, a schema error, a type
/// error: the run has to have met all three.
#[derive(Default)]
struct Outcomes {
    batches: usize,
    schema_errors: usize,
    type_errors: usize,
}

fn check_range(
    bus: &MessageBus,
    source: &BusSource,
    model: &Model,
    seen: &mut Outcomes,
    start: u64,
    end: u64,
) {
    // (`assert!` on `==`: a failure should not print 100 000 records.)
    let want = model.slice(start, end);
    let max = (end - start) as usize;
    assert!(bus.read(TOPIC, 0, start, max).unwrap() == want, "read {start}+{max}");
    let stamps = want.iter().map(|r| r.ingest_time_us);
    let bounds = stamps.clone().min().zip(stamps.clone().max());
    assert_eq!(source.ingest_bounds(&range(start, end)).unwrap(), bounds);
    for projection in [None, Some(&[2usize, 0][..]), Some(&[1][..]), Some(&[3, 1][..])] {
        let got = source.read_all_projected(&range(start, end), projection);
        // The continuous engine's poll: the same batch, or the same
        // error, plus every record's own ingest stamp.
        match (&got, source.read_stamped(0, start, max, projection)) {
            (Ok(got), Ok((polled, runs))) => {
                assert!(*got == polled, "poll {start}+{max} {projection:?}");
                let polled = runs.into_iter().flat_map(|(rows, stamp)| rows.map(move |_| stamp));
                assert!(polled.eq(stamps.clone()), "poll stamps {start}+{max}");
            }
            (Err(got), Err(polled)) => assert_eq!(got.to_string(), polled.to_string()),
            (got, polled) => panic!("{start}+{max} {projection:?}: {got:?} vs poll {polled:?}"),
        }
        match (got, model.batch(start, end, projection)) {
            (Ok(got), Ok(want)) => {
                assert!(got == want, "batch {start}..{end} {projection:?}");
                seen.batches += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string());
                match got {
                    SsError::Schema(_) => seen.schema_errors += 1,
                    SsError::Type(_) => seen.type_errors += 1,
                    other => panic!("unexpected error {other}"),
                }
            }
            (got, want) => panic!("{start}..{end} {projection:?}: {got:?} vs model {want:?}"),
        }
    }
}

fn check(
    bus: &MessageBus,
    source: &BusSource,
    model: &Model,
    seen: &mut Outcomes,
    rng: &mut XorShift64,
    thorough: bool,
) {
    let (base, next) = (model.base, model.next());
    assert_eq!(bus.latest_offsets(TOPIC).unwrap()[&0], next);
    assert_eq!(bus.earliest_offsets(TOPIC).unwrap()[&0], base);
    assert_eq!(bus.retained_records(TOPIC).unwrap(), model.records.len() as u64);
    assert_eq!(bus.shed_records(TOPIC).unwrap(), model.shed);
    // Below the horizon is an error, at or past the end is empty.
    if base > 0 {
        let err = bus.read(TOPIC, 0, base - 1, 10).unwrap_err();
        assert!(err.to_string().contains("retention"), "{err}");
    }
    assert!(bus.read(TOPIC, 0, next, 10).unwrap().is_empty());
    assert!(bus.read(TOPIC, 0, next + 5, 10).unwrap().is_empty());
    // Reading past the end stops at the end.
    let tail = next.saturating_sub(3).max(base);
    assert!(bus.read(TOPIC, 0, tail, 1_000).unwrap() == model.slice(tail, next));
    // A few short ranges anywhere (they start and end mid-chunk) ...
    for _ in 0..4 {
        let start = rng.gen_range(base, next + 1);
        let end = (start + rng.gen_range(0, 300)).min(next);
        check_range(bus, source, model, seen, start, end);
    }
    // ... and, now and then, everything retained: several chunks, with
    // whatever heterogeneity the log holds.
    if thorough {
        check_range(bus, source, model, seen, base, next);
        let start = rng.gen_range(base, next + 1);
        check_range(bus, source, model, seen, start, next);
    }
}

fn run(seed: u64, capacity: Option<usize>) {
    let bus = Arc::new(MessageBus::new());
    bus.create_topic_with(
        TOPIC,
        TopicConfig {
            partitions: 1,
            capacity,
            overflow: OverflowPolicy::DropOldest,
        },
    )
    .unwrap();
    let source = BusSource::new(bus.clone(), TOPIC, schema()).unwrap();
    let mut model = Model {
        base: 0,
        records: Vec::new(),
        capacity,
        shed: 0,
    };
    let mut rng = XorShift64::new(seed);
    let mut seen = Outcomes::default();
    let sizes = [1, 1, 1, 2, 7, 90, 1_000, 4_096, 30_000, 65_536, 70_000];
    for step in 0..48u64 {
        // The first batches are large and free of NULLs, so validity
        // bitmaps first appear in a later chunk; the odd shapes come
        // mid-stream, a few rows at a time.
        let (shape, size) = match step {
            0 => (Shape::Typed { nulls: 0 }, 70_000),
            1 => (Shape::Typed { nulls: 0 }, 65_536),
            _ => match rng.gen_range(0, 12) {
                0 => (Shape::Widened, rng.gen_range(1, 40)),
                1 => (Shape::Sparse, rng.gen_range(1, 40)),
                2 => (Shape::Mistyped, rng.gen_range(1, 5)),
                3 => (Shape::Wide, rng.gen_range(1, 5)),
                4 | 5 => (Shape::Typed { nulls: 0 }, sizes[rng.gen_range(0, 11) as usize]),
                _ => (Shape::Typed { nulls: 200 }, sizes[rng.gen_range(0, 11) as usize]),
            },
        };
        let first = model.next() as i64;
        let rows: Vec<Row> = (0..size as i64).map(|i| make_row(shape, &mut rng, first + i)).collect();
        let stamp = step as i64 * 10 - rng.gen_range(0, 25) as i64;
        model.append(stamp, &rows);
        let at = bus.append_at(TOPIC, 0, stamp, rows).unwrap();
        assert_eq!(at, first as u64);
        check(&bus, &source, &model, &mut seen, &mut rng, step % 8 == 7);

        if step % 3 == 2 {
            // Retention: mostly a cut inside the retained records, at
            // times up to (or past) the end.
            let cut = match rng.gen_range(0, 6) {
                0 => model.next() + rng.gen_range(0, 3),
                _ => rng.gen_range(model.base, model.next() + 1),
            };
            model.truncate_before(cut);
            bus.truncate_before(TOPIC, 0, cut).unwrap();
            check(&bus, &source, &model, &mut seen, &mut rng, false);
        }
    }
    assert!(seen.batches > 100 && seen.schema_errors > 0 && seen.type_errors > 0);
}

#[test]
fn unbounded_log_matches_the_record_model() {
    run(0x0C01_0106, None);
}

#[test]
fn drop_oldest_log_matches_the_record_model() {
    run(0x5EED_0CA9, Some(100_000));
}
