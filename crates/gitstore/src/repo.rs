//! The repository: refs, an index mirroring `HEAD`, and commit machinery.
//!
//! The cost profile deliberately mirrors git's (§3.6 of the paper): building
//! tree objects is incremental (only directories touched by a change are
//! rehashed), but every commit serializes and hashes the *entire* index —
//! git reads and rewrites `.git/index` (one entry per tracked file) on each
//! commit, which is why commit latency grows with repository size (Fig 13).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::HashSet;
use std::fmt;

use bytes::Bytes;

use crate::object::{Commit, EntryKind, Object, ObjectId, Tree, TreeEntry};
use crate::odb::Odb;
use crate::sha1::Sha1;

/// One staged modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change {
    /// Create or overwrite the file at `path`.
    Put {
        /// Slash-separated path, e.g. `"feed/ranker.cconf"`.
        path: String,
        /// New file contents.
        content: Bytes,
    },
    /// Remove the file at `path`.
    Delete {
        /// Slash-separated path of an existing file.
        path: String,
    },
}

impl Change {
    /// Convenience constructor for [`Change::Put`].
    pub fn put(path: impl Into<String>, content: impl Into<Bytes>) -> Change {
        Change::Put {
            path: path.into(),
            content: content.into(),
        }
    }

    /// Convenience constructor for [`Change::Delete`].
    pub fn delete(path: impl Into<String>) -> Change {
        Change::Delete { path: path.into() }
    }

    /// The path this change touches.
    pub fn path(&self) -> &str {
        match self {
            Change::Put { path, .. } | Change::Delete { path } => path,
        }
    }
}

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A commit with no changes was requested.
    EmptyCommit,
    /// The path does not exist at the referenced snapshot.
    NotFound(String),
    /// The path is syntactically invalid or collides with a directory/file.
    InvalidPath(String),
    /// The referenced commit is not in the object database.
    UnknownCommit(ObjectId),
    /// Internal corruption: an object had an unexpected kind.
    Corrupt(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyCommit => write!(f, "empty commit"),
            Error::NotFound(p) => write!(f, "path not found: {p}"),
            Error::InvalidPath(p) => write!(f, "invalid path: {p}"),
            Error::UnknownCommit(c) => write!(f, "unknown commit: {c}"),
            Error::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Work accounting for one commit, consumed by the throughput benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Id of the new commit.
    pub id: ObjectId,
    /// Number of tracked files after the commit.
    pub files_total: usize,
    /// Bytes serialized and hashed for the index write (grows with
    /// repository size).
    pub index_bytes: usize,
    /// Tree objects rewritten (grows with the number of touched
    /// directories, not repository size).
    pub trees_written: usize,
    /// Blob objects written.
    pub blobs_written: usize,
}

/// How a path differs between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathChange {
    /// The changed path.
    pub path: String,
    /// Blob id on the old side, if present.
    pub old: Option<ObjectId>,
    /// Blob id on the new side, if present.
    pub new: Option<ObjectId>,
}

#[derive(Debug, Clone, Default)]
struct IndexDir {
    files: BTreeMap<String, ObjectId>,
    dirs: BTreeMap<String, IndexDir>,
    /// Tree object id of this directory as of the last write, cleared when
    /// any content underneath changes.
    cached: Option<ObjectId>,
}

impl IndexDir {
    fn is_empty(&self) -> bool {
        self.files.is_empty() && self.dirs.is_empty()
    }
}

/// A version-controlled store of configuration files.
///
/// # Examples
///
/// ```
/// use gitstore::repo::{Change, Repository};
///
/// let mut repo = Repository::new();
/// let out = repo
///     .commit("alice", "add config", 1, vec![Change::put("svc/app.json", "{}")])
///     .unwrap();
/// assert_eq!(out.files_total, 1);
/// let data = repo.read_head("svc/app.json").unwrap();
/// assert_eq!(&data[..], b"{}");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Repository {
    odb: Odb,
    refs: BTreeMap<String, ObjectId>,
    index: IndexDir,
    file_count: usize,
}

/// Name of the default branch.
pub const MAIN: &str = "main";

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Repository {
        Repository::default()
    }

    /// The current head commit, or `None` before the first commit.
    pub fn head(&self) -> Option<ObjectId> {
        self.refs.get(MAIN).copied()
    }

    /// Number of tracked files at head.
    pub fn file_count(&self) -> usize {
        self.file_count
    }

    /// The underlying object database.
    pub fn odb(&self) -> &Odb {
        &self.odb
    }

    /// Validates `changes` against the current head without applying them:
    /// path shape, file/directory collisions, and deletions of missing
    /// files, including interactions *within* the change set (a put
    /// followed by a colliding put, a delete of a path created earlier in
    /// the set). Cost is O(changes), independent of repository size.
    pub fn validate_changes(&self, changes: &[Change]) -> Result<(), Error> {
        if changes.is_empty() {
            return Err(Error::EmptyCommit);
        }
        let mut added: Vec<&str> = Vec::new();
        let mut removed: Vec<&str> = Vec::new();
        for c in changes {
            self.validate_change(c).or_else(|e| {
                // A change may be valid only relative to earlier changes in
                // the same set (e.g. deleting a path added above).
                match c {
                    Change::Delete { path } if added.contains(&path.as_str()) => Ok(()),
                    Change::Put { path, .. }
                        if matches!(e, Error::NotFound(_)) || removed.contains(&path.as_str()) =>
                    {
                        Ok(())
                    }
                    _ => Err(e),
                }
            })?;
            match c {
                Change::Put { path, .. } => added.push(path),
                Change::Delete { path } => removed.push(path),
            }
        }
        Ok(())
    }

    /// Creates a commit applying `changes` on top of the current head.
    ///
    /// All paths are validated before anything is applied; on error the
    /// repository is unchanged.
    pub fn commit(
        &mut self,
        author: &str,
        message: &str,
        timestamp: u64,
        changes: Vec<Change>,
    ) -> Result<CommitOutcome, Error> {
        self.validate_changes(&changes)?;
        let mut blobs_written = 0;
        for c in changes {
            match c {
                Change::Put { path, content } => {
                    let oid = self.odb.put(Object::Blob(content));
                    blobs_written += 1;
                    let existed = self.index_put(&path, oid);
                    if !existed {
                        self.file_count += 1;
                    }
                }
                Change::Delete { path } => {
                    self.index_delete(&path);
                    self.file_count -= 1;
                }
            }
        }
        // The O(total files) index write, as in git.
        let index_bytes = self.hash_index();
        let mut trees_written = 0;
        let mut index = std::mem::take(&mut self.index);
        let tree = Self::write_tree(&mut self.odb, &mut index, &mut trees_written);
        self.index = index;
        let commit = Commit {
            tree,
            parents: self.head().into_iter().collect(),
            author: author.to_string(),
            message: message.to_string(),
            timestamp,
        };
        let id = self.odb.put(Object::Commit(commit));
        self.refs.insert(MAIN.to_string(), id);
        Ok(CommitOutcome {
            id,
            files_total: self.file_count,
            index_bytes,
            trees_written,
            blobs_written,
        })
    }

    /// Reads a file at the given commit.
    pub fn read(&self, commit: ObjectId, path: &str) -> Result<Bytes, Error> {
        let c = self.commit_info(commit)?;
        let mut tree_oid = c.tree;
        let segments: Vec<&str> = path.split('/').collect();
        for (i, seg) in segments.iter().enumerate() {
            let tree = self.tree(tree_oid)?;
            let entry = tree
                .entries
                .iter()
                .find(|e| e.name == *seg)
                .ok_or_else(|| Error::NotFound(path.to_string()))?;
            let last = i == segments.len() - 1;
            match (last, entry.kind) {
                (true, EntryKind::Blob) => {
                    return match self.odb.get(entry.oid) {
                        Some(Object::Blob(b)) => Ok(b.clone()),
                        _ => Err(Error::Corrupt(format!("blob missing: {}", entry.oid))),
                    };
                }
                (false, EntryKind::Tree) => tree_oid = entry.oid,
                _ => return Err(Error::NotFound(path.to_string())),
            }
        }
        Err(Error::NotFound(path.to_string()))
    }

    /// Reads a file at the current head. Served from the in-memory head
    /// index (per-segment hash lookups) rather than a tree walk: head
    /// reads are the hot path of every compile-plan loader, and the tree
    /// walk's linear scan per directory made wide flat directories O(n)
    /// per read.
    pub fn read_head(&self, path: &str) -> Result<Bytes, Error> {
        let oid = self
            .index_lookup(path)
            .ok_or_else(|| Error::NotFound(path.to_string()))?;
        match self.odb.get(oid) {
            Some(Object::Blob(b)) => Ok(b.clone()),
            _ => Err(Error::Corrupt(format!("blob missing: {oid}"))),
        }
    }

    /// Returns whether `path` exists at head.
    pub fn exists(&self, path: &str) -> bool {
        self.index_lookup(path).is_some()
    }

    /// Returns the flat `path → blob id` listing of a commit's snapshot.
    pub fn snapshot(&self, commit: ObjectId) -> Result<BTreeMap<String, ObjectId>, Error> {
        let c = self.commit_info(commit)?;
        let mut out = BTreeMap::new();
        self.walk_tree(c.tree, String::new(), &mut out)?;
        Ok(out)
    }

    /// Returns commit metadata.
    pub fn commit_info(&self, commit: ObjectId) -> Result<&Commit, Error> {
        match self.odb.get(commit) {
            Some(Object::Commit(c)) => Ok(c),
            Some(_) => Err(Error::Corrupt(format!("not a commit: {commit}"))),
            None => Err(Error::UnknownCommit(commit)),
        }
    }

    /// Walks history from `from` to the root, following first parents.
    pub fn log(&self, from: ObjectId) -> Result<Vec<ObjectId>, Error> {
        let mut out = Vec::new();
        let mut cur = Some(from);
        while let Some(id) = cur {
            let c = self.commit_info(id)?;
            out.push(id);
            cur = c.parents.first().copied();
        }
        Ok(out)
    }

    /// Computes the paths that differ between commits `a` and `b`.
    ///
    /// Identical subtrees are skipped by object id, so the cost is
    /// proportional to the amount of change, not repository size.
    pub fn diff_commits(&self, a: ObjectId, b: ObjectId) -> Result<Vec<PathChange>, Error> {
        let ta = self.commit_info(a)?.tree;
        let tb = self.commit_info(b)?.tree;
        let mut out = Vec::new();
        self.diff_trees(Some(ta), Some(tb), "", &mut out)?;
        Ok(out)
    }

    /// Computes the paths changed by `commit` relative to its first parent
    /// (everything, for a root commit).
    pub fn commit_changes(&self, commit: ObjectId) -> Result<Vec<PathChange>, Error> {
        let c = self.commit_info(commit)?;
        match c.parents.first() {
            Some(&p) => self.diff_commits(p, commit),
            None => {
                let snap = self.snapshot(commit)?;
                Ok(snap
                    .into_iter()
                    .map(|(path, oid)| PathChange {
                        path,
                        old: None,
                        new: Some(oid),
                    })
                    .collect())
            }
        }
    }

    /// Collects every path changed between `base` (exclusive) and the
    /// current head. With `base == None`, everything ever changed. Used by
    /// the landing strip's true-conflict check.
    pub fn paths_changed_since(&self, base: Option<ObjectId>) -> Result<HashSet<String>, Error> {
        let Some(head) = self.head() else {
            return Ok(HashSet::new());
        };
        let mut out = HashSet::new();
        let mut cur = Some(head);
        while let Some(id) = cur {
            if Some(id) == base {
                return Ok(out);
            }
            for ch in self.commit_changes(id)? {
                out.insert(ch.path);
            }
            cur = self.commit_info(id)?.parents.first().copied();
        }
        match base {
            // Walked to the root without meeting `base`: it is not an
            // ancestor of head.
            Some(b) => Err(Error::UnknownCommit(b)),
            None => Ok(out),
        }
    }

    fn tree(&self, oid: ObjectId) -> Result<&Tree, Error> {
        match self.odb.get(oid) {
            Some(Object::Tree(t)) => Ok(t),
            Some(_) => Err(Error::Corrupt(format!("not a tree: {oid}"))),
            None => Err(Error::Corrupt(format!("missing tree: {oid}"))),
        }
    }

    fn walk_tree(
        &self,
        oid: ObjectId,
        prefix: String,
        out: &mut BTreeMap<String, ObjectId>,
    ) -> Result<(), Error> {
        let tree = self.tree(oid)?.clone();
        for e in tree.entries {
            let path = if prefix.is_empty() {
                e.name.clone()
            } else {
                format!("{prefix}/{}", e.name)
            };
            match e.kind {
                EntryKind::Blob => {
                    out.insert(path, e.oid);
                }
                EntryKind::Tree => self.walk_tree(e.oid, path, out)?,
            }
        }
        Ok(())
    }

    /// Merge-walks the two name-sorted entry lists by reference: one pass,
    /// no tree clones, no per-name search. Changes come out in name order,
    /// a file's change before the subtree that replaced it.
    fn diff_trees(
        &self,
        a: Option<ObjectId>,
        b: Option<ObjectId>,
        prefix: &str,
        out: &mut Vec<PathChange>,
    ) -> Result<(), Error> {
        if a == b {
            return Ok(());
        }
        let entries = |oid: Option<ObjectId>| -> Result<&[TreeEntry], Error> {
            match oid {
                Some(oid) => Ok(&self.tree(oid)?.entries),
                None => Ok(&[]),
            }
        };
        let (ea, eb) = (entries(a)?, entries(b)?);
        let (mut i, mut j) = (0, 0);
        while i < ea.len() || j < eb.len() {
            let order = match (ea.get(i), eb.get(j)) {
                (Some(x), Some(y)) => x.name.cmp(&y.name),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let x = (order != Ordering::Greater).then(|| &ea[i]);
            let y = (order != Ordering::Less).then(|| &eb[j]);
            i += x.is_some() as usize;
            j += y.is_some() as usize;
            if let (Some(x), Some(y)) = (x, y) {
                if x.oid == y.oid && x.kind == y.kind {
                    continue;
                }
            }
            let name = &x.or(y).expect("one side has an entry").name;
            let path = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            let sub =
                |e: Option<&TreeEntry>, k: EntryKind| e.filter(|e| e.kind == k).map(|e| e.oid);
            let (ba, bb) = (sub(x, EntryKind::Blob), sub(y, EntryKind::Blob));
            let (da, db) = (sub(x, EntryKind::Tree), sub(y, EntryKind::Tree));
            if da.is_some() || db.is_some() {
                if ba != bb {
                    out.push(PathChange {
                        path: path.clone(),
                        old: ba,
                        new: bb,
                    });
                }
                self.diff_trees(da, db, &path, out)?;
            } else {
                out.push(PathChange {
                    path,
                    old: ba,
                    new: bb,
                });
            }
        }
        Ok(())
    }

    fn validate_change(&self, c: &Change) -> Result<(), Error> {
        let path = c.path();
        if path.is_empty()
            || path.starts_with('/')
            || path.ends_with('/')
            || path.split('/').any(|s| s.is_empty())
        {
            return Err(Error::InvalidPath(path.to_string()));
        }
        match c {
            Change::Put { .. } => self.check_no_collision(path),
            Change::Delete { .. } => {
                if self.index_lookup(path).is_some() {
                    Ok(())
                } else {
                    Err(Error::NotFound(path.to_string()))
                }
            }
        }
    }

    /// Rejects a put whose path collides with an existing directory, or
    /// whose parent directories collide with existing files.
    fn check_no_collision(&self, path: &str) -> Result<(), Error> {
        let segments: Vec<&str> = path.split('/').collect();
        let mut dir = &self.index;
        for (i, seg) in segments.iter().enumerate() {
            let last = i == segments.len() - 1;
            if last {
                if dir.dirs.contains_key(*seg) {
                    return Err(Error::InvalidPath(path.to_string()));
                }
            } else {
                if dir.files.contains_key(*seg) {
                    return Err(Error::InvalidPath(path.to_string()));
                }
                match dir.dirs.get(*seg) {
                    Some(d) => dir = d,
                    None => return Ok(()),
                }
            }
        }
        Ok(())
    }

    fn index_lookup(&self, path: &str) -> Option<ObjectId> {
        let segments: Vec<&str> = path.split('/').collect();
        let mut dir = &self.index;
        for (i, seg) in segments.iter().enumerate() {
            if i == segments.len() - 1 {
                return dir.files.get(*seg).copied();
            }
            dir = dir.dirs.get(*seg)?;
        }
        None
    }

    /// Inserts `oid` at `path`, returning whether the file already existed.
    fn index_put(&mut self, path: &str, oid: ObjectId) -> bool {
        let segments: Vec<&str> = path.split('/').collect();
        let mut dir = &mut self.index;
        dir.cached = None;
        for seg in &segments[..segments.len() - 1] {
            dir = dir.dirs.entry(seg.to_string()).or_default();
            dir.cached = None;
        }
        dir.files
            .insert(segments[segments.len() - 1].to_string(), oid)
            .is_some()
    }

    fn index_delete(&mut self, path: &str) {
        fn rec(dir: &mut IndexDir, segments: &[&str]) {
            dir.cached = None;
            if segments.len() == 1 {
                dir.files.remove(segments[0]);
            } else if let Some(child) = dir.dirs.get_mut(segments[0]) {
                rec(child, &segments[1..]);
                if child.is_empty() {
                    dir.dirs.remove(segments[0]);
                }
            }
        }
        let segments: Vec<&str> = path.split('/').collect();
        rec(&mut self.index, &segments);
    }

    /// Serializes the whole index (every tracked path and blob id) and
    /// hashes it, mirroring git's `.git/index` rewrite. Returns the number
    /// of bytes hashed.
    fn hash_index(&self) -> usize {
        fn walk(dir: &IndexDir, prefix: &mut String, h: &mut Sha1, n: &mut usize) {
            for (name, oid) in &dir.files {
                h.update(prefix.as_bytes());
                h.update(name.as_bytes());
                h.update(&[0]);
                h.update(&oid.0);
                *n += prefix.len() + name.len() + 21;
            }
            for (name, child) in &dir.dirs {
                let saved = prefix.len();
                prefix.push_str(name);
                prefix.push('/');
                walk(child, prefix, h, n);
                prefix.truncate(saved);
            }
        }
        let mut h = Sha1::new();
        let mut n = 0;
        let mut prefix = String::new();
        walk(&self.index, &mut prefix, &mut h, &mut n);
        let _ = h.finalize();
        n
    }

    /// Writes tree objects for dirty directories bottom-up, reusing cached
    /// ids for clean subtrees.
    fn write_tree(odb: &mut Odb, dir: &mut IndexDir, written: &mut usize) -> ObjectId {
        if let Some(oid) = dir.cached {
            return oid;
        }
        let mut entries = Vec::with_capacity(dir.files.len() + dir.dirs.len());
        for (name, child) in dir.dirs.iter_mut() {
            let oid = Self::write_tree(odb, child, written);
            entries.push(TreeEntry {
                name: name.clone(),
                kind: EntryKind::Tree,
                oid,
            });
        }
        for (name, oid) in &dir.files {
            entries.push(TreeEntry {
                name: name.clone(),
                kind: EntryKind::Blob,
                oid: *oid,
            });
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let oid = odb.put(Object::Tree(Tree { entries }));
        *written += 1;
        dir.cached = Some(oid);
        oid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(path: &str, content: &str) -> Change {
        Change::put(path, content.to_string())
    }

    #[test]
    fn commit_and_read_back() {
        let mut r = Repository::new();
        r.commit(
            "a",
            "m",
            0,
            vec![put("x/y/z.json", "zzz"), put("top.json", "t")],
        )
        .unwrap();
        assert_eq!(&r.read_head("x/y/z.json").unwrap()[..], b"zzz");
        assert_eq!(&r.read_head("top.json").unwrap()[..], b"t");
        assert_eq!(r.file_count(), 2);
        assert!(r.exists("top.json"));
        assert!(!r.exists("x/y"));
    }

    #[test]
    fn empty_commit_rejected() {
        let mut r = Repository::new();
        assert_eq!(r.commit("a", "m", 0, vec![]), Err(Error::EmptyCommit));
    }

    #[test]
    fn invalid_paths_rejected() {
        let mut r = Repository::new();
        for bad in ["", "/x", "x/", "a//b"] {
            assert!(matches!(
                r.commit("a", "m", 0, vec![put(bad, "v")]),
                Err(Error::InvalidPath(_))
            ));
        }
    }

    #[test]
    fn file_dir_collisions_rejected() {
        let mut r = Repository::new();
        r.commit("a", "m", 0, vec![put("a/b", "v")]).unwrap();
        assert!(matches!(
            r.commit("a", "m", 1, vec![put("a", "v")]),
            Err(Error::InvalidPath(_))
        ));
        assert!(matches!(
            r.commit("a", "m", 1, vec![put("a/b/c", "v")]),
            Err(Error::InvalidPath(_))
        ));
    }

    #[test]
    fn delete_missing_rejected_and_repo_unchanged() {
        let mut r = Repository::new();
        r.commit("a", "m", 0, vec![put("a", "1")]).unwrap();
        let head = r.head();
        assert!(matches!(
            r.commit("a", "m", 1, vec![Change::delete("nope")]),
            Err(Error::NotFound(_))
        ));
        assert_eq!(r.head(), head);
    }

    #[test]
    fn delete_prunes_empty_dirs() {
        let mut r = Repository::new();
        r.commit("a", "m", 0, vec![put("d/e/f", "1"), put("top", "2")])
            .unwrap();
        r.commit("a", "m", 1, vec![Change::delete("d/e/f")])
            .unwrap();
        assert_eq!(r.file_count(), 1);
        assert!(matches!(r.read_head("d/e/f"), Err(Error::NotFound(_))));
        let snap = r.snapshot(r.head().unwrap()).unwrap();
        assert_eq!(snap.len(), 1);
        assert!(snap.contains_key("top"));
    }

    #[test]
    fn history_walk() {
        let mut r = Repository::new();
        let c1 = r.commit("a", "one", 0, vec![put("f", "1")]).unwrap().id;
        let c2 = r.commit("a", "two", 1, vec![put("f", "2")]).unwrap().id;
        assert_eq!(r.log(c2).unwrap(), vec![c2, c1]);
        assert_eq!(r.commit_info(c2).unwrap().parents, vec![c1]);
        // Old snapshot still readable.
        assert_eq!(&r.read(c1, "f").unwrap()[..], b"1");
        assert_eq!(&r.read(c2, "f").unwrap()[..], b"2");
    }

    #[test]
    fn diff_commits_reports_changed_paths_only() {
        let mut r = Repository::new();
        let c1 = r
            .commit(
                "a",
                "m",
                0,
                vec![put("a/one", "1"), put("b/two", "2"), put("c", "3")],
            )
            .unwrap()
            .id;
        let c2 = r
            .commit(
                "a",
                "m",
                1,
                vec![put("a/one", "1x"), Change::delete("c"), put("d/new", "4")],
            )
            .unwrap()
            .id;
        let mut paths: Vec<String> = r
            .diff_commits(c1, c2)
            .unwrap()
            .into_iter()
            .map(|c| c.path)
            .collect();
        paths.sort();
        assert_eq!(paths, vec!["a/one", "c", "d/new"]);
    }

    /// `diff_commits` against the obvious oracle: diff the two flat
    /// snapshots. Random histories over a small name pool (so a name is a
    /// file in one commit and a directory in another) beside a 2,000-wide
    /// directory, compared across arbitrary, non-adjacent commit pairs.
    #[test]
    fn diff_commits_equals_snapshot_diff_on_random_trees() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut r = Repository::new();
            let wide: Vec<Change> = (0..2_000)
                .map(|i| put(&format!("wide/f{i:04}"), "w"))
                .collect();
            let mut commits = vec![r.commit("a", "wide", 0, wide).unwrap().id];
            let names = ["a", "a-b", "b", "c"];
            let mut live: Vec<String> = Vec::new();
            for t in 1..120u64 {
                // Paths of depth 1–3 over the pool: `a` the file and `a/b`
                // the directory entry compete for the same name.
                let depth = rng.gen_range(1..4usize);
                let path = (0..depth)
                    .map(|_| names[rng.gen_range(0..names.len())])
                    .collect::<Vec<_>>()
                    .join("/");
                let change = if !live.is_empty() && rng.gen_bool(0.4) {
                    Change::delete(live.swap_remove(rng.gen_range(0..live.len())))
                } else if rng.gen_bool(0.3) {
                    let f = rng.gen_range(0..2_100u32);
                    put(&format!("wide/f{f:04}"), &t.to_string())
                } else {
                    put(&path, &t.to_string())
                };
                // A put that collides with a file or directory bounces;
                // the history is whatever lands.
                if let Ok(out) = r.commit("a", "m", t, vec![change]) {
                    commits.push(out.id);
                    if r.exists(&path) && !live.contains(&path) {
                        live.push(path);
                    }
                }
            }
            assert!(commits.len() > 20, "seed {seed}: too few commits landed");
            let mut swaps = 0;
            for _ in 0..80 {
                let a = commits[rng.gen_range(0..commits.len())];
                let b = commits[rng.gen_range(0..commits.len())];
                let (sa, sb) = (r.snapshot(a).unwrap(), r.snapshot(b).unwrap());
                let mut want: Vec<PathChange> = sa
                    .keys()
                    .chain(sb.keys())
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .filter(|p| sa.get(*p) != sb.get(*p))
                    .map(|p| PathChange {
                        path: p.clone(),
                        old: sa.get(p).copied(),
                        new: sb.get(p).copied(),
                    })
                    .collect();
                let got = r.diff_commits(a, b).unwrap();
                // Tree-walk order: by path segments, a file before the
                // subtree that replaced it.
                let segments = |c: &PathChange| -> Vec<String> {
                    c.path.split('/').map(str::to_string).collect()
                };
                want.sort_by_key(segments);
                assert_eq!(got, want, "seed {seed}: {a} vs {b}");
                swaps += got
                    .iter()
                    .filter(|c| {
                        got.iter()
                            .any(|d| d.path.starts_with(&format!("{}/", c.path)))
                    })
                    .count();
            }
            assert!(swaps > 0, "seed {seed}: no file/directory swap was diffed");
        }
    }

    #[test]
    fn commit_changes_of_root_lists_everything() {
        let mut r = Repository::new();
        let c1 = r
            .commit("a", "m", 0, vec![put("x", "1"), put("y", "2")])
            .unwrap()
            .id;
        let ch = r.commit_changes(c1).unwrap();
        assert_eq!(ch.len(), 2);
        assert!(ch.iter().all(|c| c.old.is_none()));
    }

    #[test]
    fn paths_changed_since_tracks_multiple_commits() {
        let mut r = Repository::new();
        let base = r.commit("a", "m", 0, vec![put("a", "1")]).unwrap().id;
        r.commit("a", "m", 1, vec![put("b", "2")]).unwrap();
        r.commit("a", "m", 2, vec![put("c", "3")]).unwrap();
        let changed = r.paths_changed_since(Some(base)).unwrap();
        assert_eq!(changed.len(), 2);
        assert!(changed.contains("b") && changed.contains("c"));
        // base == head → empty set.
        let head = r.head();
        assert!(r.paths_changed_since(head).unwrap().is_empty());
    }

    #[test]
    fn paths_changed_since_unknown_base_errors() {
        let mut r = Repository::new();
        r.commit("a", "m", 0, vec![put("a", "1")]).unwrap();
        let ghost = Object::Blob(Bytes::from_static(b"ghost")).id();
        assert!(r.paths_changed_since(Some(ghost)).is_err());
    }

    #[test]
    fn index_bytes_grow_with_repo_while_trees_do_not() {
        let mut r = Repository::new();
        // Seed 100 files across 10 directories.
        let seed: Vec<Change> = (0..100)
            .map(|i| put(&format!("d{}/f{}", i % 10, i), "v"))
            .collect();
        r.commit("a", "seed", 0, seed).unwrap();
        let small = r.commit("a", "m", 1, vec![put("d0/f0", "v2")]).unwrap();
        // Grow to 1000 files.
        let grow: Vec<Change> = (100..1000)
            .map(|i| put(&format!("d{}/f{}", i % 10, i), "v"))
            .collect();
        r.commit("a", "grow", 2, grow).unwrap();
        let big = r.commit("a", "m", 3, vec![put("d0/f0", "v3")]).unwrap();
        assert!(big.index_bytes > small.index_bytes * 5);
        // Tree writes stay proportional to touched dirs (root + d0).
        assert_eq!(small.trees_written, 2);
        assert_eq!(big.trees_written, 2);
    }

    #[test]
    fn identical_snapshots_share_objects() {
        let mut r = Repository::new();
        let c1 = r.commit("a", "m", 0, vec![put("f", "1")]).unwrap().id;
        let c2 = r.commit("a", "m", 1, vec![put("f", "2")]).unwrap().id;
        let c3 = r.commit("a", "m", 2, vec![put("f", "1")]).unwrap().id;
        let t1 = r.commit_info(c1).unwrap().tree;
        let t3 = r.commit_info(c3).unwrap().tree;
        assert_eq!(t1, t3, "same snapshot → same tree id");
        assert_ne!(c1, c3, "but distinct commits");
        let _ = c2;
    }
}
