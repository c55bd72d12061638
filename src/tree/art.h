// ART — Adaptive Radix Tree (paper Section 3.3.3; Leis et al., ICDE 2013).
//
// A 256-way radix tree over the big-endian bytes of a 64-bit key, so an
// in-order traversal yields keys in ascending numeric order. Inner nodes
// adapt among five sizes (Node4, Node16, Node32, Node48, Node256) as their
// fan-out grows, and pessimistic path compression stores up to 8 skipped
// prefix bytes per inner node. Height therefore depends on key length (<= 8
// levels), not on the number of keys, and no rebalancing is ever required —
// the radix-tree properties the paper contrasts with comparison trees.
//
// Node16 and Node32 keep their key arrays sorted and search them with
// 16-wide SIMD byte compares (util/simd.h), one for Node16 and two for
// Node32; Node32 exists because two compares make fan-outs 17..32 cheaper
// than the Node48 indirection that used to absorb them (cf. Leis et al.'s
// SSE Node16 search, extended one size up).
//
// Insert-only (aggregation workloads never erase), not thread-safe.

#ifndef MEMAGG_TREE_ART_H_
#define MEMAGG_TREE_ART_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "mem/allocator.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/simd.h"
#include "util/tracer.h"

namespace memagg {

/// Adaptive radix tree from uint64_t keys to Value. `Tracer` reports every
/// node visited (see util/tracer.h). `Alloc` serves the six node sizes;
/// the default arena allocator recycles outgrown inner nodes (Node4 →
/// Node16 → Node32 → Node48 → Node256 leaves the smaller shell on a
/// freelist for the next split) and releases everything wholesale at
/// destruction. `Ops` selects the node-scan kernel lane (default: the
/// compiled lane, simd::DefaultOps; tests pin simd::ScalarOps).
template <typename Value, MemoryTracer Tracer = NullTracer,
          AllocatorPolicy Alloc = ArenaAllocator,
          simd::SimdOps Ops = simd::DefaultOps>
class ArtTree {
 public:
  using mapped_type = Value;

  ArtTree() = default;

  ~ArtTree() {
    // Wholesale-release fast path: the arena reclaims all nodes at once.
    if constexpr (!(Alloc::kWholesaleRelease &&
                    std::is_trivially_destructible_v<Value>)) {
      DestroySubtree(root_);
    }
  }

  ArtTree(const ArtTree&) = delete;
  ArtTree& operator=(const ArtTree&) = delete;

  /// Returns the value slot for `key`, default-constructing it on first use.
  Value& GetOrInsert(EncodedKey key) {
    uint8_t bytes[8];
    EncodeKey(key, bytes);
    return InsertImpl(&root_, bytes, 0, key);
  }

  /// Returns the value for `key` or nullptr if absent.
  const Value* Find(EncodedKey key) const {
    uint8_t bytes[8];
    EncodeKey(key, bytes);
    const Node* node = root_;
    size_t depth = 0;
    while (node != nullptr) {
      Tracer::OnAccess(node, NodeBytes(node));
      if (node->type == NodeType::kLeaf) {
        const Leaf* leaf = static_cast<const Leaf*>(node);
        return leaf->key == key ? &leaf->value : nullptr;
      }
      const Inner* inner = static_cast<const Inner*>(node);
      if (inner->prefix_len > 0) {
        if (std::memcmp(inner->prefix, bytes + depth, inner->prefix_len) != 0) {
          return nullptr;
        }
        depth += inner->prefix_len;
      }
      node = FindChild(inner, bytes[depth]);
      ++depth;
    }
    return nullptr;
  }

  Value* Find(EncodedKey key) {
    return const_cast<Value*>(static_cast<const ArtTree*>(this)->Find(key));
  }

  /// Number of distinct keys stored.
  size_t size() const { return size_; }

  /// Invokes fn(key, value) in ascending key order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    ForEachInSubtree(root_, fn);
  }

  /// Invokes fn(key, value) in ascending key order for keys in [lo, hi].
  template <typename Fn>
  void ForEachInRange(uint64_t lo, uint64_t hi, Fn fn) const {
    if (lo > hi) return;
    RangeInSubtree(root_, 0, 0, lo, hi, fn);
  }

  /// Approximate heap footprint in bytes (node structs only).
  size_t MemoryBytes() const { return memory_bytes_; }

  /// Node-allocator counters (see mem/arena.h).
  AllocStats AllocatorStats() const { return alloc_.Stats(); }

  /// Node-population diagnostics, computed on demand. The adaptive node mix
  /// is ART's defining feature (and, per the paper's Section 5.3, the source
  /// of its distribution-sensitive cache behaviour when many small nodes
  /// are created).
  struct NodeStats {
    size_t leaves = 0;
    size_t node4 = 0;
    size_t node16 = 0;
    size_t node32 = 0;
    size_t node48 = 0;
    size_t node256 = 0;
    size_t max_depth = 0;            ///< In nodes along the deepest path.
    size_t total_prefix_bytes = 0;   ///< Path-compressed bytes saved.

    size_t inner_nodes() const {
      return node4 + node16 + node32 + node48 + node256;
    }
  };

  NodeStats ComputeNodeStats() const {
    NodeStats stats;
    CollectNodeStats(root_, 1, stats);
    return stats;
  }

 private:
  enum class NodeType : uint8_t {
    kLeaf,
    kNode4,
    kNode16,
    kNode32,
    kNode48,
    kNode256
  };

  // Pessimistic path compression never overflows for 8-byte keys: two
  // distinct keys share at most 7 leading bytes, so every stored prefix fits
  // and no optimistic "compare overflow bytes at the leaf" pass is needed.
  // InsertImpl DCHECKs the bound where prefixes are built.
  static constexpr int kMaxPrefix = 8;

  struct Node {
    explicit Node(NodeType t) : type(t) {}
    NodeType type;
  };

  struct Leaf : Node {
    explicit Leaf(uint64_t k) : Node(NodeType::kLeaf), key(k) {}
    EncodedKey key;
    Value value{};
  };

  struct Inner : Node {
    Inner(NodeType t) : Node(t) {}
    uint16_t num_children = 0;
    uint8_t prefix_len = 0;
    uint8_t prefix[kMaxPrefix] = {};
  };

  struct Node4 : Inner {
    Node4() : Inner(NodeType::kNode4) {}
    uint8_t keys[4] = {};
    Node* children[4] = {};
  };

  struct Node16 : Inner {
    Node16() : Inner(NodeType::kNode16) {}
    uint8_t keys[16] = {};
    Node* children[16] = {};
  };

  struct Node32 : Inner {
    Node32() : Inner(NodeType::kNode32) {}
    uint8_t keys[32] = {};
    Node* children[32] = {};
  };

  struct Node48 : Inner {
    Node48() : Inner(NodeType::kNode48) {
      std::memset(child_index, 0xff, sizeof(child_index));
    }
    uint8_t child_index[256];  // 0xff = absent.
    Node* children[48] = {};
  };

  struct Node256 : Inner {
    Node256() : Inner(NodeType::kNode256) {}
    Node* children[256] = {};
  };

  static void EncodeKey(EncodedKey key, uint8_t out[8]) {
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<uint8_t>(key >> (56 - 8 * i));
    }
  }

  template <typename T>
  T* NewNode() {
    memory_bytes_ += sizeof(T);
    return alloc_.template New<T>();
  }

  Leaf* NewLeaf(EncodedKey key) {
    memory_bytes_ += sizeof(Leaf);
    ++size_;
    return alloc_.template New<Leaf>(key);
  }

  static Node* const* FindChildSlot(const Inner* inner, uint8_t byte) {
    switch (inner->type) {
      case NodeType::kNode4: {
        const Node4* n = static_cast<const Node4*>(inner);
        for (int i = 0; i < n->num_children; ++i) {
          if (n->keys[i] == byte) return &n->children[i];
        }
        return nullptr;
      }
      case NodeType::kNode16: {
        // One 16-wide byte compare over the full key array, masked down to
        // num_children (the array is always fully readable).
        const Node16* n = static_cast<const Node16*>(inner);
        const int i = Ops::FindByte16(n->keys, n->num_children, byte);
        return i < 0 ? nullptr : &n->children[i];
      }
      case NodeType::kNode32: {
        const Node32* n = static_cast<const Node32*>(inner);
        const int i = Ops::FindByte32(n->keys, n->num_children, byte);
        return i < 0 ? nullptr : &n->children[i];
      }
      case NodeType::kNode48: {
        const Node48* n = static_cast<const Node48*>(inner);
        if (n->child_index[byte] == 0xff) return nullptr;
        return &n->children[n->child_index[byte]];
      }
      case NodeType::kNode256: {
        const Node256* n = static_cast<const Node256*>(inner);
        if (n->children[byte] == nullptr) return nullptr;
        return &n->children[byte];
      }
      default:
        MEMAGG_CHECK(false);
        return nullptr;
    }
  }

  static const Node* FindChild(const Inner* inner, uint8_t byte) {
    Node* const* slot = FindChildSlot(inner, byte);
    return slot == nullptr ? nullptr : *slot;
  }

  /// Inserts `byte -> child` into `*inner_slot`, growing the node type if
  /// full. `*inner_slot` may be replaced.
  void AddChild(Node** inner_slot, uint8_t byte, Node* child) {
    Inner* inner = static_cast<Inner*>(*inner_slot);
    switch (inner->type) {
      case NodeType::kNode4: {
        Node4* n = static_cast<Node4*>(inner);
        if (n->num_children < 4) {
          int pos = 0;
          while (pos < n->num_children && n->keys[pos] < byte) ++pos;
          for (int i = n->num_children; i > pos; --i) {
            n->keys[i] = n->keys[i - 1];
            n->children[i] = n->children[i - 1];
          }
          n->keys[pos] = byte;
          n->children[pos] = child;
          ++n->num_children;
          return;
        }
        Node16* grown = NewNode<Node16>();
        CopyHeader(grown, n);
        std::memcpy(grown->keys, n->keys, 4);
        std::memcpy(grown->children, n->children, 4 * sizeof(Node*));
        grown->num_children = 4;
        FreeInner(n);
        *inner_slot = grown;
        AddChild(inner_slot, byte, child);
        return;
      }
      case NodeType::kNode16: {
        Node16* n = static_cast<Node16*>(inner);
        if (n->num_children < 16) {
          int pos = 0;
          while (pos < n->num_children && n->keys[pos] < byte) ++pos;
          for (int i = n->num_children; i > pos; --i) {
            n->keys[i] = n->keys[i - 1];
            n->children[i] = n->children[i - 1];
          }
          n->keys[pos] = byte;
          n->children[pos] = child;
          ++n->num_children;
          return;
        }
        // The keys are sorted, so a straight copy keeps Node32 sorted too —
        // order is preserved no matter what order the inserts arrived in.
        Node32* grown = NewNode<Node32>();
        CopyHeader(grown, n);
        std::memcpy(grown->keys, n->keys, 16);
        std::memcpy(grown->children, n->children, 16 * sizeof(Node*));
        grown->num_children = 16;
        FreeInner(n);
        *inner_slot = grown;
        AddChild(inner_slot, byte, child);
        return;
      }
      case NodeType::kNode32: {
        Node32* n = static_cast<Node32*>(inner);
        if (n->num_children < 32) {
          int pos = 0;
          while (pos < n->num_children && n->keys[pos] < byte) ++pos;
          for (int i = n->num_children; i > pos; --i) {
            n->keys[i] = n->keys[i - 1];
            n->children[i] = n->children[i - 1];
          }
          n->keys[pos] = byte;
          n->children[pos] = child;
          ++n->num_children;
          return;
        }
        Node48* grown = NewNode<Node48>();
        CopyHeader(grown, n);
        // child_index is keyed by byte value, so Node48's in-order
        // traversal stays correct regardless of insertion order.
        for (int i = 0; i < 32; ++i) {
          grown->child_index[n->keys[i]] = static_cast<uint8_t>(i);
          grown->children[i] = n->children[i];
        }
        grown->num_children = 32;
        FreeInner(n);
        *inner_slot = grown;
        AddChild(inner_slot, byte, child);
        return;
      }
      case NodeType::kNode48: {
        Node48* n = static_cast<Node48*>(inner);
        if (n->num_children < 48) {
          n->child_index[byte] = static_cast<uint8_t>(n->num_children);
          n->children[n->num_children] = child;
          ++n->num_children;
          return;
        }
        Node256* grown = NewNode<Node256>();
        CopyHeader(grown, n);
        for (int b = 0; b < 256; ++b) {
          if (n->child_index[b] != 0xff) {
            grown->children[b] = n->children[n->child_index[b]];
          }
        }
        grown->num_children = 48;
        FreeInner(n);
        *inner_slot = grown;
        AddChild(inner_slot, byte, child);
        return;
      }
      case NodeType::kNode256: {
        Node256* n = static_cast<Node256*>(inner);
        MEMAGG_DCHECK(n->children[byte] == nullptr);
        n->children[byte] = child;
        ++n->num_children;
        return;
      }
      default:
        MEMAGG_CHECK(false);
    }
  }

  static void CopyHeader(Inner* dst, const Inner* src) {
    dst->prefix_len = src->prefix_len;
    std::memcpy(dst->prefix, src->prefix, src->prefix_len);
  }

  void FreeInner(Inner* inner) {
    switch (inner->type) {
      case NodeType::kNode4:
        memory_bytes_ -= sizeof(Node4);
        alloc_.Delete(static_cast<Node4*>(inner));
        break;
      case NodeType::kNode16:
        memory_bytes_ -= sizeof(Node16);
        alloc_.Delete(static_cast<Node16*>(inner));
        break;
      case NodeType::kNode32:
        memory_bytes_ -= sizeof(Node32);
        alloc_.Delete(static_cast<Node32*>(inner));
        break;
      case NodeType::kNode48:
        memory_bytes_ -= sizeof(Node48);
        alloc_.Delete(static_cast<Node48*>(inner));
        break;
      case NodeType::kNode256:
        memory_bytes_ -= sizeof(Node256);
        alloc_.Delete(static_cast<Node256*>(inner));
        break;
      default:
        MEMAGG_CHECK(false);
    }
  }

  static size_t NodeBytes(const Node* node) {
    switch (node->type) {
      case NodeType::kLeaf:
        return sizeof(Leaf);
      case NodeType::kNode4:
        return sizeof(Node4);
      case NodeType::kNode16:
        return sizeof(Node16);
      case NodeType::kNode32:
        return sizeof(Node32);
      case NodeType::kNode48:
        return sizeof(Node48);
      case NodeType::kNode256:
        return sizeof(Node256);
    }
    return sizeof(Node);
  }

  Value& InsertImpl(Node** slot, const uint8_t bytes[8], size_t depth,
                    EncodedKey key) {
    Node* node = *slot;
    if (node != nullptr) Tracer::OnAccess(node, NodeBytes(node));
    if (node == nullptr) {
      Leaf* leaf = NewLeaf(key);
      *slot = leaf;
      return leaf->value;
    }
    if (node->type == NodeType::kLeaf) {
      Leaf* leaf = static_cast<Leaf*>(node);
      if (leaf->key == key) return leaf->value;
      // Split: create a Node4 holding the common prefix of the two keys.
      uint8_t existing[8];
      EncodeKey(leaf->key, existing);
      size_t common = depth;
      while (existing[common] == bytes[common]) ++common;
      // The keys differ (checked above), so the scan stops within the 8 key
      // bytes and the new prefix fits kMaxPrefix — prefixes never truncate.
      MEMAGG_DCHECK(common < 8);
      MEMAGG_DCHECK(common - depth <= static_cast<size_t>(kMaxPrefix));
      Node4* split = NewNode<Node4>();
      split->prefix_len = static_cast<uint8_t>(common - depth);
      std::memcpy(split->prefix, bytes + depth, split->prefix_len);
      Leaf* new_leaf = NewLeaf(key);
      Node* split_node = split;
      AddChild(&split_node, existing[common], leaf);
      AddChild(&split_node, bytes[common], new_leaf);
      *slot = split_node;
      return new_leaf->value;
    }

    Inner* inner = static_cast<Inner*>(node);
    // Compare the compressed prefix.
    size_t mismatch = 0;
    while (mismatch < inner->prefix_len &&
           inner->prefix[mismatch] == bytes[depth + mismatch]) {
      ++mismatch;
    }
    if (mismatch < inner->prefix_len) {
      // Split the prefix: new Node4 with the matching part; the existing
      // node keeps the tail.
      Node4* split = NewNode<Node4>();
      split->prefix_len = static_cast<uint8_t>(mismatch);
      std::memcpy(split->prefix, inner->prefix, mismatch);
      const uint8_t inner_byte = inner->prefix[mismatch];
      const uint8_t tail_len =
          static_cast<uint8_t>(inner->prefix_len - mismatch - 1);
      std::memmove(inner->prefix, inner->prefix + mismatch + 1, tail_len);
      inner->prefix_len = tail_len;
      Leaf* new_leaf = NewLeaf(key);
      Node* split_node = split;
      AddChild(&split_node, inner_byte, inner);
      AddChild(&split_node, bytes[depth + mismatch], new_leaf);
      *slot = split_node;
      return new_leaf->value;
    }
    depth += inner->prefix_len;

    Node* const* child_slot = FindChildSlot(inner, bytes[depth]);
    if (child_slot == nullptr) {
      Leaf* leaf = NewLeaf(key);
      AddChild(slot, bytes[depth], leaf);
      return leaf->value;
    }
    return InsertImpl(const_cast<Node**>(child_slot), bytes, depth + 1, key);
  }

  template <typename Fn>
  static void ForEachInSubtree(const Node* node, Fn& fn) {
    if (node == nullptr) return;
    Tracer::OnAccess(node, NodeBytes(node));
    if (node->type == NodeType::kLeaf) {
      const Leaf* leaf = static_cast<const Leaf*>(node);
      fn(leaf->key, leaf->value);
      return;
    }
    VisitChildrenInOrder(static_cast<const Inner*>(node),
                         [&fn](uint8_t, const Node* child) {
                           ForEachInSubtree(child, fn);
                         });
  }

  template <typename Visit>
  static void VisitChildrenInOrder(const Inner* inner, Visit visit) {
    switch (inner->type) {
      case NodeType::kNode4: {
        const Node4* n = static_cast<const Node4*>(inner);
        for (int i = 0; i < n->num_children; ++i) {
          visit(n->keys[i], n->children[i]);
        }
        return;
      }
      case NodeType::kNode16: {
        const Node16* n = static_cast<const Node16*>(inner);
        for (int i = 0; i < n->num_children; ++i) {
          visit(n->keys[i], n->children[i]);
        }
        return;
      }
      case NodeType::kNode32: {
        const Node32* n = static_cast<const Node32*>(inner);
        for (int i = 0; i < n->num_children; ++i) {
          visit(n->keys[i], n->children[i]);
        }
        return;
      }
      case NodeType::kNode48: {
        const Node48* n = static_cast<const Node48*>(inner);
        for (int b = 0; b < 256; ++b) {
          if (n->child_index[b] != 0xff) {
            visit(static_cast<uint8_t>(b), n->children[n->child_index[b]]);
          }
        }
        return;
      }
      case NodeType::kNode256: {
        const Node256* n = static_cast<const Node256*>(inner);
        for (int b = 0; b < 256; ++b) {
          if (n->children[b] != nullptr) {
            visit(static_cast<uint8_t>(b), n->children[b]);
          }
        }
        return;
      }
      default:
        MEMAGG_CHECK(false);
    }
  }

  /// Range traversal. `acc` holds the key bytes fixed so far (left-aligned);
  /// `depth` is the number of fixed bytes. Subtrees whose possible key range
  /// [acc|00.., acc|ff..] misses [lo, hi] are pruned.
  template <typename Fn>
  static void RangeInSubtree(const Node* node, uint64_t acc, size_t depth,
                             uint64_t lo, uint64_t hi, Fn& fn) {
    if (node == nullptr) return;
    Tracer::OnAccess(node, NodeBytes(node));
    if (node->type == NodeType::kLeaf) {
      const Leaf* leaf = static_cast<const Leaf*>(node);
      if (leaf->key >= lo && leaf->key <= hi) fn(leaf->key, leaf->value);
      return;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    for (int i = 0; i < inner->prefix_len; ++i) {
      acc |= static_cast<uint64_t>(inner->prefix[i]) << (56 - 8 * depth);
      ++depth;
    }
    if (!SubtreeOverlaps(acc, depth, lo, hi)) return;
    VisitChildrenInOrder(inner, [&](uint8_t byte, const Node* child) {
      const uint64_t child_acc =
          acc | (static_cast<uint64_t>(byte) << (56 - 8 * depth));
      if (SubtreeOverlaps(child_acc, depth + 1, lo, hi)) {
        RangeInSubtree(child, child_acc, depth + 1, lo, hi, fn);
      }
    });
  }

  static bool SubtreeOverlaps(uint64_t acc, size_t depth, uint64_t lo,
                              uint64_t hi) {
    if (depth == 0) return true;  // No bytes fixed: whole key space.
    if (depth >= 8) return acc >= lo && acc <= hi;
    const uint64_t span = (1ULL << (8 * (8 - depth))) - 1;
    const uint64_t min_key = acc;
    const uint64_t max_key = acc | span;
    return max_key >= lo && min_key <= hi;
  }

  static void CollectNodeStats(const Node* node, size_t depth,
                               NodeStats& stats) {
    if (node == nullptr) return;
    stats.max_depth = std::max(stats.max_depth, depth);
    if (node->type == NodeType::kLeaf) {
      ++stats.leaves;
      return;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    stats.total_prefix_bytes += inner->prefix_len;
    switch (inner->type) {
      case NodeType::kNode4:
        ++stats.node4;
        break;
      case NodeType::kNode16:
        ++stats.node16;
        break;
      case NodeType::kNode32:
        ++stats.node32;
        break;
      case NodeType::kNode48:
        ++stats.node48;
        break;
      case NodeType::kNode256:
        ++stats.node256;
        break;
      default:
        break;
    }
    VisitChildrenInOrder(inner, [&stats, depth](uint8_t, const Node* child) {
      CollectNodeStats(child, depth + 1, stats);
    });
  }

  void DestroySubtree(Node* node) {
    if (node == nullptr) return;
    if (node->type == NodeType::kLeaf) {
      alloc_.Delete(static_cast<Leaf*>(node));
      return;
    }
    Inner* inner = static_cast<Inner*>(node);
    VisitChildrenInOrder(inner, [this](uint8_t, const Node* child) {
      DestroySubtree(const_cast<Node*>(child));
    });
    FreeInner(inner);
  }

  Node* root_ = nullptr;
  size_t size_ = 0;
  size_t memory_bytes_ = 0;
  Alloc alloc_;
};

/// Ablation alias: ART on global new/delete (label ART_Global).
template <typename Value>
using ArtTreeGlobalNew = ArtTree<Value, NullTracer, GlobalNewAllocator>;

}  // namespace memagg

#endif  // MEMAGG_TREE_ART_H_
