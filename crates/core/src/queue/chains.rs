//! Consumer chains: singly linked lists of entry indices in one arena.

/// End of a chain (link 0 is a placeholder that is never used).
pub(super) const NIL: u32 = 0;

/// One link of a [`Chains`] chain: an entry index and the next link.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    entry: u32,
    next: u32,
}

/// Singly linked chains of entry indices sharing one arena with a free
/// list, so a chain allocates nothing once the arena has grown to its
/// high-water mark. A chain is named by its first link (`NIL` if empty).
#[derive(Debug, Clone)]
pub(super) struct Chains {
    links: Vec<Link>,
    free: u32,
}

impl Chains {
    pub(super) fn new() -> Chains {
        Chains {
            links: vec![Link::default()],
            free: NIL,
        }
    }

    /// Push `entry` onto the front of the chain headed by `head`.
    pub(super) fn push(&mut self, head: &mut u32, entry: usize) {
        let link = Link {
            entry: entry as u32,
            next: *head,
        };
        *head = if self.free == NIL {
            self.links.push(link);
            (self.links.len() - 1) as u32
        } else {
            let node = self.free;
            self.free = self.links[node as usize].next;
            self.links[node as usize] = link;
            node
        };
    }

    /// The entry index of `link` and the link after it.
    pub(super) fn get(&self, link: u32) -> (usize, u32) {
        let Link { entry, next } = self.links[link as usize];
        (entry as usize, next)
    }

    /// The entries of `chain`, newest first.
    pub(super) fn iter(&self, chain: u32) -> impl Iterator<Item = usize> + '_ {
        let mut link = chain;
        std::iter::from_fn(move || {
            (link != NIL).then(|| {
                let (entry, next) = self.get(link);
                link = next;
                entry
            })
        })
    }

    /// Unlink the first link naming `entry` from the chain headed by
    /// `head`, if any.
    pub(super) fn remove(&mut self, head: &mut u32, entry: usize) {
        let mut prev = NIL;
        let mut link = *head;
        while link != NIL {
            let (e, next) = self.get(link);
            if e == entry {
                if prev == NIL {
                    *head = next;
                } else {
                    self.links[prev as usize].next = next;
                }
                self.links[link as usize].next = self.free;
                self.free = link;
                return;
            }
            prev = link;
            link = next;
        }
    }

    /// Chain `a` followed by chain `b`.
    pub(super) fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        let mut tail = a;
        while self.links[tail as usize].next != NIL {
            tail = self.links[tail as usize].next;
        }
        self.links[tail as usize].next = b;
        a
    }

    /// Return every link of `chain` to the free list.
    pub(super) fn free(&mut self, chain: u32) {
        self.free = self.join(chain, self.free);
    }
}
